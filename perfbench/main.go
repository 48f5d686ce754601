// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time with a given seed, checks every verdict and
// checksum against a known answer, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of its
// standard output:
//
//	perfbench -workload fine -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//   - fine: the 15 Table-1 kernels in one-async-per-iteration form plus
//     the three racy variants, on a 2-worker pool (Fig 3 shape).
//   - chunked: the 8 JGF kernels in one-chunk-per-worker form plus the
//     racy variants (Table 2 shape).
//   - sampled: the access-heavy fine kernels under bernoulli:0.05
//     sampling plus a seeded progen corpus judged by the DAG oracle.
//   - service: a spd3d daemon in its own process, fed v2 jobs by a
//     closed loop of two clients drawing seeded traces from a catalogue.
//
// The benchmark drives the shipped code from outside: detectors come
// from the detect registry wired exactly as spd3.New wires them, kernels
// run on task runtimes, and the service is reached only through the
// public spd3/client package. See README.md in this directory for the
// metric definitions and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string  // directory holding the spd3d binary
	work     string  // directory for the daemon store and span files
	scale    float64 // 0 = the workload's default problem size
	setups   int     // set-up repetitions; setup_s is their median
	corpus   int     // progen corpus size (sampled); 0 = default
	plant    string  // program whose known answer is replaced by a wrong one
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (kernel order, service job sequence, progen corpus)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build", "directory holding the spd3d binary (service workload)")
	fs.StringVar(&o.work, "work", ".bench_build", "working directory for the daemon store and span files")
	fs.Float64Var(&o.scale, "scale", 0, "problem-size multiplier (0 = workload default)")
	fs.IntVar(&o.setups, "setups", 3, "set-up repetitions (setup_s reports their median)")
	fs.IntVar(&o.corpus, "corpus", 0, "progen corpus size for the sampled workload (0 = default)")
	fs.StringVar(&o.plant, "plant", "", "replace this program's known answer with a wrong one (\"corpus\" = every progen answer), to show the gate trips")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || o.setups < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds and -setups must be positive")
		return 2
	}
	rep := newReport()
	steal := startSteal()
	if err := w(o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: the host stole %.1f%% of this VM's CPU time during the run\n", 100*steal.share())
	fmt.Fprintf(stdout, "workload %s seed %d trace %v\n", o.workload, o.seed, o.trace)
	rep.gate.writeErrors(stderr)
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.gate.ok() {
		return 1
	}
	return 0
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"fine":    runLibrary,
	"chunked": runLibrary,
	"sampled": runLibrary,
	"service": runService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gate is the known-answer check: every attempted operation is counted,
// and every mismatch (bad checksum, wrong verdict, false positive, failed
// or refused job) is a failure.
type gate struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

// check counts one attempted operation and records a failure unless ok.
func (g *gate) check(ok bool, format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
		if len(g.errs) < 20 {
			g.errs = append(g.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed == 0 && g.attempted > 0
}

func (g *gate) writeErrors(w io.Writer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.errs {
		fmt.Fprintln(w, "perfbench: known-answer mismatch:", e)
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's gate and metrics.
type report struct {
	gate    gate
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the result line: exactly correct, attempted, failed and
// metrics.
func (r *report) print(w io.Writer) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.gate.ok(), r.gate.attempted, r.gate.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// End-to-end metric names, printed by every untraced run.
const (
	mSlowdown = "slowdown_geomean"
	mDetectS  = "detect_s"
	mShadowMB = "shadow_mb"
	mRecall   = "race_recall"
	mSetupS   = "setup_s"
	mJobsPerS = "jobs_per_s"
	mP50      = "verdict_p50_ms"
	mP90      = "verdict_p90_ms"
	mPeakRSS  = "daemon_peak_rss_mb"
)

// perLayer lists every per-layer metric with its unit, in the order of
// the layer map in README.md. Traced runs print all of them; a metric a
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"task.tasks", "count"},
	{"task.steal_share", "ratio"},
	{"task.allocs_per_task", "count"},
	{"task.self_ms", "ms"},
	{"detect.boundary_events", "count"},
	{"detect.boundary_ns", "ns"},
	{"detect.boundary_ms", "ms"},
	{"detect.accesses", "count"},
	{"detect.access_ns", "ns"},
	{"detect.access_ms", "ms"},
	{"dmhp.queries", "count"},
	{"dmhp.walk_share", "ratio"},
	{"dmhp.memo_hit_share", "ratio"},
	{"footprint.tree_mb", "MB"},
	{"cas.publish_share", "ratio"},
	{"cas.retry_share", "ratio"},
	{"shadow.pages", "count"},
	{"shadow.page_cache_hit_share", "ratio"},
	{"footprint.shadow_mb", "MB"},
	{"mem.accesses", "count"},
	{"mem.checks_per_access", "ratio"},
	{"sample.checked_share", "ratio"},
	{"race.reported", "count"},
	{"race.deduped", "count"},
	{"alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"job.submit_ms", "ms"},
	{"job.wait_ms", "ms"},
	{"job.result_ms", "ms"},
	{"trace.split_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"trace.segments_per_job", "count"},
	{"srv.streamed_mb", "MB"},
	{"store.put_mb", "MB"},
	{"store.dedup_share", "ratio"},
	{"srv.rejected", "count"},
	{"quota.denied", "count"},
	{"job.failed", "count"},
	{"error_rate", "ratio"},
	{"trace_overhead", "ratio"},
}

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// setLayer sets a per-layer metric by name.
func (r *report) setLayer(name string, v float64) { r.set(name, layerUnit(name), v) }

// fillLayers zero-fills the per-layer metrics a workload did not set and
// adds error_rate from the gate.
func (r *report) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
	r.gate.mu.Lock()
	att, failed := r.gate.attempted, r.gate.failed
	r.gate.mu.Unlock()
	if att > 0 {
		r.setLayer("error_rate", float64(failed)/float64(att))
	}
}

// setupTimer measures set-up: the first repetition runs from process
// start, later ones from their own start; setup_s is the median of their
// times, each scaled by the CPU share the host left the VM (see
// stealMeter.kept).
type setupTimer struct{ samples []float64 }

// startup meters the time since process start.
var startup = startSteal()

func (s *setupTimer) repeat(n int, f func() error) error {
	for i := 0; i < n; i++ {
		m := startSteal()
		if i == 0 {
			m = startup
		}
		if err := f(); err != nil {
			return err
		}
		s.samples = append(s.samples, time.Since(m.start).Seconds()*m.kept())
	}
	return nil
}

func (s *setupTimer) median() float64 { return median(s.samples) }

// peakRSSMB returns this process's peak resident set (VmHWM) in MB, or
// the Go runtime's Sys bytes where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
