package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"spd3/client"
	"spd3/internal/bench"
	"spd3/internal/detect"
	"spd3/internal/graph"
	"spd3/internal/stats"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// clients is the closed loop's client count; each client has at most one
// request in flight, so the daemon sees at most two connections.
const clients = 2

// traceSpec names one catalogue trace: a race-free kernel at some size,
// or a racy variant.
type traceSpec struct {
	name  string
	racy  bool // a bench.Racy variant rather than a Table-1 kernel
	scale float64
}

// catalogueSpecs are the traces the service workload draws jobs from:
// race-free kernels at several sizes (recorded on the 2-worker pool, as
// a CI caller would) and the sequentially runnable racy variants
// (recorded depth-first, so a live in-process run reproduces the exact
// event order and hence the exact race set).
var catalogueSpecs = []traceSpec{
	{"SOR", false, 0.6},
	{"SOR", false, 0.9},
	{"Crypt", false, 1.2},
	{"LUFact", false, 0.8},
	{"MolDyn", false, 0.8},
	{"Sparse", false, 0.5},
	{"RacyMonteCarlo", true, 64},
	{"BuggyBarrier", true, 12},
}

// entry is one recorded catalogue trace and its known answers.
type entry struct {
	label    string
	data     []byte
	racy     bool    // known answer (oracle for racy variants)
	digest   string  // live in-process race digest
	footMB   float64 // daemon-reported footprint of one job
	splitMS  float64 // in-process split time (median)
	replayMS float64 // in-process replay time (median)
}

func recordEntry(ts traceSpec, scale float64) (*entry, error) {
	in := bench.Input{Scale: ts.scale * scale}
	e := &entry{label: fmt.Sprintf("%s@%.3g", ts.name, in.Scale)}
	var run func(rt *task.Runtime) (float64, error)
	exec := task.Pool
	if ts.racy {
		exec = task.Sequential
		for _, rb := range bench.Racy() {
			if rb.Name == ts.name {
				rb := rb
				run = func(rt *task.Runtime) (float64, error) { return rb.Run(rt, in) }
			}
		}
		if run == nil {
			return nil, fmt.Errorf("unknown racy variant %q", ts.name)
		}
	} else {
		b, err := bench.ByName(ts.name)
		if err != nil {
			return nil, err
		}
		run = func(rt *task.Runtime) (float64, error) { return b.Run(rt, in) }
	}

	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, exec == task.Sequential)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: rec})
	if err != nil {
		return nil, err
	}
	if _, err := run(rt); err != nil {
		return nil, fmt.Errorf("recording %s: %w", e.label, err)
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("recording %s: %w", e.label, err)
	}
	e.data = buf.Bytes()
	if !ts.racy {
		// Table-1 kernels are race-free for every input (§6.1; the
		// library workloads gate it on every run).
		return e, nil
	}

	o := graph.New()
	rt, err = task.New(task.Config{Executor: task.Sequential, Detector: o})
	if err != nil {
		return nil, err
	}
	if _, err := run(rt); err != nil {
		return nil, fmt.Errorf("%s under the oracle: %w", e.label, err)
	}
	e.racy = o.HasRace()

	live, err := newEngine("spd3", "", task.Sequential, 1, nil)
	if err != nil {
		return nil, err
	}
	if _, err := run(live.rt); err != nil {
		return nil, fmt.Errorf("%s live run: %w", e.label, err)
	}
	var keys []string
	for _, r := range live.sink.Races() {
		keys = append(keys, raceKey("spd3", r.Kind.String(), r.Region, r.Index))
	}
	e.digest = digest(keys)
	return e, nil
}

func raceKey(detector, kind, region string, index int) string {
	return fmt.Sprintf("%s/%s/%s/%d", detector, kind, region, index)
}

// digest is a SHA-256 over the sorted, deduplicated race keys: the same
// digest spd3load -digest prints, which CI compares across the v1 and v2
// paths.
func digest(keys []string) string {
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	sorted := make([]string, 0, len(set))
	for k := range set {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	h := sha256.New()
	for _, k := range sorted {
		fmt.Fprintln(h, k)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// reportDigest digests a job result's races.
func reportDigest(rep *client.Report) (racy bool, d string) {
	var keys []string
	for _, v := range rep.Verdicts {
		racy = racy || v.Racy
		for _, r := range v.Races {
			keys = append(keys, raceKey(v.Detector, r.Kind, r.Region, r.Index))
		}
	}
	return racy, digest(keys)
}

// daemon is a spd3d process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the stderr drain ends
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs spd3d on a free loopback port with its store in dir
// and waits until it listens.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "spd3d"),
		"-addr", "127.0.0.1:0", "-store", dir, "-quiet", "-gc-interval", "0")
	// Should the benchmark die without stopping the daemon, the kernel
	// kills the daemon too. The signal follows the thread that started
	// the child, so that thread is pinned for the start.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	err = cmd.Start()
	runtime.UnlockOSThread()
	if err != nil {
		return nil, fmt.Errorf("starting spd3d: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		d.stop()
		return nil, errors.New("spd3d exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("spd3d did not listen within 30s")
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s) and waits
// for the process and its stderr drain to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	exited := make(chan struct{})
	go func() {
		<-d.done
		_ = d.cmd.Wait() // the exit status of a stopped daemon is not a result
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // racing a late exit is fine
		<-exited
	}
}

// service is the service workload's state.
type service struct {
	o       options
	rep     *report
	entries []*entry
	d       *daemon
	cl      *client.Client
	store   string
}

func runService(o options, rep *report) error {
	s := &service{o: o, rep: rep}
	defer s.close()
	var st setupTimer
	if err := st.repeat(o.setups, s.setup); err != nil {
		return err
	}
	if err := s.inProcess(); err != nil {
		return err
	}
	for _, e := range s.entries {
		fmt.Fprintf(os.Stderr, "perfbench: catalogue %-18s %8d bytes, replay %6.2f ms, footprint %.3f MB\n",
			e.label, len(e.data), e.replayMS, e.footMB)
	}
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	seq := newJobSeq(o.seed, len(s.entries))
	if !o.trace {
		w, err := s.measure(start.Add(window), seq, nil)
		if err != nil {
			return err
		}
		s.e2e(w)
		rep.set(mSetupS, "s", st.median())
		return nil
	}
	// Traced: the first half untraced, the second half traced, so
	// trace_overhead compares like with like.
	plain, err := s.measure(start.Add(window/2), seq, nil)
	if err != nil {
		return err
	}
	before, err := s.cl.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("reading /statsz: %w", err)
	}
	log := newSpanLog()
	traced, err := s.measure(start.Add(window), seq, log)
	if err != nil {
		return err
	}
	after, err := s.cl.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("reading /statsz: %w", err)
	}
	if err := s.layers(traced.jobs, before, after); err != nil {
		return err
	}
	rep.setLayer("trace_overhead", share(median(traced.pass), median(plain.pass)))
	rep.fillLayers()
	return log.write(filepath.Join(o.work, "spans-service.jsonl"))
}

// cycleLen is the length of one closed-loop burst. Between bursts the
// daemon idles while every catalogue trace is replayed once in-process,
// so each latency is paired with a replay measured moments apart: host
// speed drifts over a run then cancel out of slowdown_geomean, as the
// interleaved base and detected runs make them cancel on the library
// workloads.
const cycleLen = 2 * time.Second

// window is one measurement window's cycles. Every statistic is taken
// per cycle and reported as the median over cycles, so a burst of host
// interference spoils one cycle, not the run.
type window struct {
	jobs  []jobSample
	rates []float64 // completed jobs per second
	p50   []float64 // pooled median latency, ms
	p90   []float64 // pooled p90 latency, ms
	pass  []float64 // sum over entries of their median latency, s
	slow  []float64 // geomean over entries of median latency / in-process replay
}

func (s *service) measure(deadline time.Time, seq *jobSeq, log *spanLog) (*window, error) {
	w := &window{}
	for c := 0; c == 0 || time.Until(deadline) > cycleLen/2; c++ {
		end := time.Now().Add(cycleLen)
		if end.After(deadline) {
			end = deadline
		}
		steal := startSteal()
		jobs, wall := s.loop(end, seq, log)
		keep := steal.kept()
		w.jobs = append(w.jobs, jobs...)
		lat := make([][]float64, len(s.entries))
		var all []float64
		for _, j := range jobs {
			if j.ok {
				lat[j.entry] = append(lat[j.entry], j.total*keep)
				all = append(all, j.total*keep)
			}
		}
		w.rates = append(w.rates, float64(len(all))/(wall.Seconds()*keep))
		w.p50 = append(w.p50, quantile(all, 0.5))
		w.p90 = append(w.p90, quantile(all, 0.9))
		var ratios []float64
		pass, complete := 0.0, true
		for i, e := range s.entries {
			d, err := replayOnce(e.data, nil)
			if err != nil {
				return nil, fmt.Errorf("replaying %s: %w", e.label, err)
			}
			if len(lat[i]) == 0 {
				complete = false
				continue
			}
			// The replay ran on an idle daemon right after the cycle;
			// compare it with the raw latency, as both met the same host.
			m := median(lat[i])
			ratios = append(ratios, m/keep/ms(d.Nanoseconds()))
			pass += m / 1000
		}
		w.slow = append(w.slow, geomean(ratios))
		if complete {
			w.pass = append(w.pass, pass)
		}
	}
	return w, nil
}

func (s *service) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
	if s.store != "" {
		os.RemoveAll(s.store)
	}
}

// setup records the catalogue with its known answers, starts a fresh
// daemon, and submits every entry once, reading each job's footprint
// from the daemon's /statsz delta.
func (s *service) setup() error {
	s.close()
	scale := s.o.scale
	if scale <= 0 {
		scale = 1
	}
	s.entries = s.entries[:0]
	for _, ts := range catalogueSpecs {
		e, err := recordEntry(ts, scale)
		if err != nil {
			return err
		}
		if ts.name == s.o.plant {
			if e.racy {
				e.digest = "planted"
			} else {
				e.racy = true
			}
		}
		s.entries = append(s.entries, e)
	}
	store, err := os.MkdirTemp(s.o.work, "spd3d-store-")
	if err != nil {
		return err
	}
	s.store = store
	if s.d, err = startDaemon(s.o.bin, store); err != nil {
		return err
	}
	s.cl = client.New("http://" + s.d.addr)
	ctx := context.Background()
	if err := s.cl.Health(ctx); err != nil {
		return fmt.Errorf("spd3d health: %w", err)
	}
	for i, e := range s.entries {
		before, err := s.cl.Stats(ctx)
		if err != nil {
			return err
		}
		if js := s.job(ctx, i, nil); !js.ok && s.o.plant == "" {
			return fmt.Errorf("warm-up job %s failed", e.label)
		}
		after, err := s.cl.Stats(ctx)
		if err != nil {
			return err
		}
		fb, fa := before.Stats.Footprint, after.Stats.Footprint
		e.footMB = mb(fa.ShadowBytes + fa.TreeBytes - fb.ShadowBytes - fb.TreeBytes)
	}
	return nil
}

// inProcessRepeats is how often each trace is split and replayed
// in-process for the trace-layer metrics.
const inProcessRepeats = 5

// inProcess times the trace layer in this process on the same traces:
// the splitter the daemon cuts segments with, and a whole-trace replay
// into a registry-built SPD3 detector.
func (s *service) inProcess() error {
	for _, e := range s.entries {
		var split, replay []float64
		for r := 0; r < inProcessRepeats; r++ {
			t0 := time.Now()
			if _, err := splitAll(e.data); err != nil {
				return fmt.Errorf("splitting %s: %w", e.label, err)
			}
			split = append(split, ms(time.Since(t0).Nanoseconds()))
			d, err := replayOnce(e.data, nil)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", e.label, err)
			}
			replay = append(replay, ms(d.Nanoseconds()))
		}
		e.splitMS, e.replayMS = median(split), median(replay)
	}
	return nil
}

// splitAll cuts a trace into segments the way the daemon does (its
// default 256 KiB coalescing) and returns the segment count.
func splitAll(data []byte) (int, error) {
	sp, err := trace.NewSplitter(bytes.NewReader(data), trace.SplitConfig{MinSegmentBytes: 256 << 10})
	if err != nil {
		return 0, err
	}
	for {
		if _, err := sp.Next(); err == io.EOF {
			return sp.Segments(), nil
		} else if err != nil {
			return 0, err
		}
	}
}

// replayOnce replays a whole trace into a fresh SPD3 detector (decorated
// when log is non-nil) and returns the replay time.
func replayOnce(data []byte, log *spanLog) (time.Duration, error) {
	sink := detect.NewSink(false, 0)
	rec := stats.New(1)
	sink.SetStats(rec.Shard(0))
	det, err := detect.New("spd3", detect.FactoryOpts{Sink: sink, Stats: rec})
	if err != nil {
		return 0, err
	}
	var id, start int64
	if log != nil {
		det = newTimedDetector(det, log)
		id, start = log.begin()
	}
	t0 := time.Now()
	err = trace.ReplayWithLimits(bytes.NewReader(data), det, trace.DefaultLimits())
	d := time.Since(t0)
	if log != nil {
		log.end(id, start, "replay", 1)
	}
	return d, err
}

// jobSeq is the seeded job sequence both clients draw from: the
// catalogue in a fresh seeded order every cycle, so every entry recurs
// (and dedups in the store) and the mix stays balanced however many jobs
// a run completes.
type jobSeq struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	cycle []int
}

func newJobSeq(seed int64, n int) *jobSeq {
	return &jobSeq{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (q *jobSeq) next() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.cycle) == 0 {
		q.cycle = q.rng.Perm(q.n)
	}
	i := q.cycle[0]
	q.cycle = q.cycle[1:]
	return i
}

// jobSample is one job's timeline, in milliseconds.
type jobSample struct {
	entry                       int
	ok                          bool
	submit, wait, result, total float64
}

// job submits one catalogue entry as a v2 job, waits for the SSE done
// event, fetches the result, and checks the verdict (and, for a racy
// entry, the race digest) against the known answer.
func (s *service) job(ctx context.Context, i int, log *spanLog) jobSample {
	e := s.entries[i]
	g := &s.rep.gate
	cl := s.cl
	js := jobSample{entry: i}
	t0 := time.Now()
	st, err := cl.SubmitJob(ctx, "spd3", bytes.NewReader(e.data))
	if !g.check(err == nil, "%s: submit: %v", e.label, err) {
		return js
	}
	t1 := time.Now()
	var state string
	var t2 time.Time
	err = cl.StreamEvents(ctx, st.ID, func(ev client.Event) bool {
		if ev.Name == "done" {
			t2, state = time.Now(), ev.State
		}
		return true
	})
	if !g.check(err == nil && state == client.StateDone, "%s: job %s ended %q: %v", e.label, st.ID, state, err) {
		return js
	}
	rep, err := cl.Result(ctx, st.ID)
	t3 := time.Now()
	if !g.check(err == nil, "%s: result: %v", e.label, err) {
		return js
	}
	racy, d := reportDigest(rep)
	ok := g.check(racy == e.racy, "%s: verdict racy=%v, known answer racy=%v", e.label, racy, e.racy)
	if ok && e.racy {
		ok = g.check(d == e.digest, "%s: race digest %s, live in-process run %s", e.label, d, e.digest)
	}
	// Finished jobs are kept until their TTL; free the tenant's quota
	// now. A failed delete shows up as quota.denied on later jobs.
	_ = cl.DeleteJob(ctx, st.ID)
	js.ok = ok
	js.submit = ms(t1.Sub(t0).Nanoseconds())
	js.wait = ms(t2.Sub(t1).Nanoseconds())
	js.result = ms(t3.Sub(t2).Nanoseconds())
	js.total = ms(t3.Sub(t0).Nanoseconds())
	if log != nil {
		root := log.open()
		start := t0.Sub(log.epoch).Nanoseconds()
		s1 := start + t1.Sub(t0).Nanoseconds()
		s2 := start + t2.Sub(t0).Nanoseconds()
		s3 := start + t3.Sub(t0).Nanoseconds()
		log.add(root, "submit", start, s1)
		log.add(root, "wait", s1, s2)
		log.add(root, "result", s2, s3)
		log.close(span{ID: root, Name: "job " + e.label, Start: start, End: s3})
	}
	return js
}

// loop runs the closed loop until the deadline: each client submits its
// next job as soon as its previous one completed.
func (s *service) loop(deadline time.Time, seq *jobSeq, log *spanLog) ([]jobSample, time.Duration) {
	ctx := context.Background()
	var mu sync.Mutex
	var jobs []jobSample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				js := s.job(ctx, seq.next(), log)
				mu.Lock()
				jobs = append(jobs, js)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

func (s *service) e2e(w *window) {
	var racy, hits int
	for _, j := range w.jobs {
		if s.entries[j.entry].racy {
			racy++
			if j.ok {
				hits++ // a racy job passes the gate only when reported racy
			}
		}
	}
	foot := 0.0
	for _, e := range s.entries {
		foot += e.footMB
	}
	r := s.rep
	r.set(mSlowdown, "x", median(w.slow))
	r.set(mDetectS, "s", median(w.pass))
	r.set(mShadowMB, "MB", foot)
	r.set(mRecall, "ratio", share(float64(hits), float64(racy)))
	r.set(mJobsPerS, "jobs/s", median(w.rates))
	r.set(mP50, "ms", median(w.p50))
	r.set(mP90, "ms", median(w.p90))
	if st, err := s.cl.Stats(context.Background()); r.gate.check(err == nil, "reading /statsz: %v", err) {
		r.set(mPeakRSS, "MB", mb(st.PeakRSSBytes))
	}
}

// layers sets the service's per-layer metrics: job stage medians from
// the traced half, daemon counter deltas over it, and the trace layer
// and detector timed in-process on the same traces.
func (s *service) layers(jobs []jobSample, before, after *client.Statsz) error {
	r := s.rep
	var submit, wait, result []float64
	var splitMS, replayMS float64
	n := 0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		submit = append(submit, j.submit)
		wait = append(wait, j.wait)
		result = append(result, j.result)
		splitMS += s.entries[j.entry].splitMS
		replayMS += s.entries[j.entry].replayMS
		n++
	}
	r.setLayer("job.submit_ms", median(submit))
	r.setLayer("job.wait_ms", median(wait))
	r.setLayer("job.result_ms", median(result))
	r.setLayer("trace.split_ms", share(splitMS, float64(n)))
	r.setLayer("trace.replay_ms", share(replayMS, float64(n)))

	delta := func(name string) float64 {
		return float64(after.Stats.Get(name) - before.Stats.Get(name))
	}
	segments := delta("trace.segments")
	r.setLayer("trace.segments_per_job", share(segments, float64(n)))
	r.setLayer("srv.streamed_mb", delta("srv.streamed_bytes")/(1<<20))
	r.setLayer("store.put_mb", delta("store.put_bytes")/(1<<20))
	r.setLayer("store.dedup_share", share(delta("store.dedup_hits"), segments))
	r.setLayer("srv.rejected", delta("srv.rejected"))
	r.setLayer("quota.denied", delta("quota.denied"))
	r.setLayer("job.failed", delta("job.failed"))

	var snap stats.Snapshot
	for c := stats.Counter(0); c < stats.NumCounters; c++ {
		snap.Counters[c] = int64(delta(c.String()))
	}
	snap.Reads = int64(delta("mem.reads"))
	snap.Writes = int64(delta("mem.writes"))
	layerCounts(r, snap)
	r.setLayer("footprint.shadow_mb", mb(after.Stats.Footprint.ShadowBytes-before.Stats.Footprint.ShadowBytes))
	r.setLayer("footprint.tree_mb", mb(after.Stats.Footprint.TreeBytes-before.Stats.Footprint.TreeBytes))

	// The detector ledger and Go runtime costs of replaying each
	// catalogue trace once in-process.
	log := newSpanLog()
	clock := clockOverheadNS(log)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, e := range s.entries {
		if _, err := replayOnce(e.data, log); err != nil {
			return fmt.Errorf("traced replay of %s: %w", e.label, err)
		}
	}
	runtime.ReadMemStats(&m1)
	lt := ledgerOf(log, clock)
	r.setLayer("task.self_ms", lt.selfMS)
	r.setLayer("detect.boundary_events", float64(lt.boundaryEvents))
	r.setLayer("detect.boundary_ns", share(lt.boundaryMS*1e6, float64(lt.boundaryEvents)))
	r.setLayer("detect.boundary_ms", lt.boundaryMS)
	r.setLayer("detect.accesses", float64(lt.accesses))
	r.setLayer("detect.access_ns", lt.accessNS)
	r.setLayer("detect.access_ms", lt.accessMS)
	r.setLayer("alloc_mb", mb(int64(m1.TotalAlloc-m0.TotalAlloc)))
	r.setLayer("gc.cycles", float64(m1.NumGC-m0.NumGC))
	r.setLayer("gc.pause_ms", ms(int64(m1.PauseTotalNs-m0.PauseTotalNs)))
	return log.write(filepath.Join(s.o.work, "spans-service-replay.jsonl"))
}
