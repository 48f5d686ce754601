package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the detector registry
	"spd3/internal/graph"
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// workers is the pool size of the parallel runs: one worker per CPU of
// the 2-vCPU machines the benchmark is sized for.
const workers = 2

// libSpec describes one library workload.
type libSpec struct {
	scale    float64
	workers  int // pool size
	chunked  bool
	kernels  []*bench.Benchmark
	racy     bool   // run the three racy variants (verdict checks)
	sampling string // sampling spec of the detected runs ("" = off)
	corpus   int    // progen corpus size (0 = none)
}

// sampledKernels are the Table-1 kernels with over 200k instrumented
// accesses a run at scale 1, unchunked: the ones where the sampling gate
// carries the load.
var sampledKernels = []string{"LUFact", "SOR", "Crypt", "Sparse", "MolDyn", "FFT", "Strassen", "Matmul"}

func librarySpec(o options) (libSpec, error) {
	var s libSpec
	switch o.workload {
	case "fine":
		// One worker, the Fig 3 1-worker column: on the 2-vCPU host the
		// 2-worker pool's absolute times swung by a quarter between runs
		// as the host's load shifted, while every boundary event and
		// DPST insert happens the same on one worker.
		s = libSpec{scale: 1, workers: 1, kernels: bench.All(), racy: true}
	case "chunked":
		s = libSpec{scale: 2, workers: workers, chunked: true, kernels: bench.JGF(), racy: true}
	case "sampled":
		s = libSpec{scale: 1, workers: workers, sampling: "bernoulli:0.05", corpus: 6000}
		for _, name := range sampledKernels {
			b, err := bench.ByName(name)
			if err != nil {
				return s, err
			}
			s.kernels = append(s.kernels, b)
		}
	default:
		return s, fmt.Errorf("not a library workload: %q", o.workload)
	}
	if o.scale > 0 {
		s.scale = o.scale
	}
	if o.corpus > 0 && s.corpus > 0 {
		s.corpus = o.corpus
	}
	return s, nil
}

// program is one library program with its known answer.
type program struct {
	name    string
	kernel  bool // Table-1 kernel: checksum-gated, in the slowdown geomean
	racy    bool // known answer for the verdict
	exec    task.ExecKind
	workers int
	run     func(rt *task.Runtime) (float64, error)
	want    float64 // reference checksum (kernels)
}

func libraryPrograms(s libSpec) []*program {
	in := bench.Input{Scale: s.scale, Chunked: s.chunked}
	var progs []*program
	for _, b := range s.kernels {
		b := b
		progs = append(progs, &program{name: b.Name, kernel: true, exec: task.Pool, workers: s.workers,
			run: func(rt *task.Runtime) (float64, error) { return b.Run(rt, in) }})
	}
	if s.racy {
		for _, rb := range bench.Racy() {
			rb := rb
			p := &program{name: rb.Name, exec: task.Pool, workers: s.workers, racy: true,
				run: func(rt *task.Runtime) (float64, error) { return rb.Run(rt, in) }}
			if rb.NeedsParallel {
				// Barrier programs block one worker per participant;
				// the goroutine executor runs them on the same CPUs.
				p.exec, p.workers = task.Goroutines, workers
			}
			progs = append(progs, p)
		}
	}
	return progs
}

// knownAnswers computes each program's known answer independently of
// the detector under test: kernels' checksums from a sequential
// uninstrumented run, racy variants' verdicts from the DAG oracle. A
// barrier program cannot run depth-first, so BarrierSOR keeps the
// paper's answer (§6.3: racy under async/finish semantics).
func knownAnswers(progs []*program) error {
	for _, p := range progs {
		if p.kernel {
			rt, err := task.New(task.Config{Executor: task.Sequential, Workers: p.workers, Detector: detect.Nop{}})
			if err != nil {
				return err
			}
			sum, err := p.run(rt)
			if err != nil {
				return fmt.Errorf("%s reference run: %w", p.name, err)
			}
			p.want = sum
			continue
		}
		if p.exec != task.Pool {
			continue
		}
		o := graph.New()
		rt, err := task.New(task.Config{Executor: task.Sequential, Workers: p.workers, Detector: o})
		if err != nil {
			return err
		}
		if _, err := p.run(rt); err != nil {
			return fmt.Errorf("%s oracle run: %w", p.name, err)
		}
		p.racy = o.HasRace()
	}
	return nil
}

// engine is one detector on one runtime, wired the way spd3.New wires
// them: a log-mode sink reporting into the engine's stats recorder, the
// sampler handed to the registry factory, the runtime recording into the
// same recorder. The uninstrumented base has no recorder.
type engine struct {
	rt   *task.Runtime
	sink *detect.Sink
	rec  *stats.Recorder
}

func newEngine(name, sampling string, exec task.ExecKind, workers int, log *spanLog) (*engine, error) {
	sink := detect.NewSink(false, 0)
	var rec *stats.Recorder
	if name != "none" {
		rec = stats.New(0)
		sink.SetStats(rec.Shard(0))
	}
	var smp *sample.Sampler
	if sampling != "" {
		cfg, err := sample.Parse(sampling)
		if err != nil {
			return nil, err
		}
		if cfg.Mode != sample.Off {
			smp = sample.NewGovernor(cfg, 0).Sampler()
		}
	}
	det, err := detect.New(name, detect.FactoryOpts{Sink: sink, Stats: rec, Sampler: smp})
	if err != nil {
		return nil, err
	}
	e := &engine{sink: sink, rec: rec}
	if log != nil {
		det = newTimedDetector(det, log)
	}
	e.rt, err = task.New(task.Config{Workers: workers, Executor: exec, Detector: det, Stats: rec})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// memDelta accumulates Go runtime counters over timed runs only.
type memDelta struct {
	mallocs, allocBytes uint64
	gcs                 uint32
	pauseNS             uint64
}

// runOut is one timed program run.
type runOut struct {
	dur   time.Duration
	sum   float64
	races []detect.Race
	snap  stats.Snapshot
	foot  detect.Footprint
}

// timedRun runs p once on a fresh engine after a forced GC, timing only
// the program and, when md is non-nil, accumulating its allocation and
// GC deltas into md.
func timedRun(p *program, detector, sampling string, log *spanLog, md *memDelta) (runOut, error) {
	e, err := newEngine(detector, sampling, p.exec, p.workers, log)
	if err != nil {
		return runOut{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	if md != nil {
		runtime.ReadMemStats(&m0)
	}
	var id, start int64
	if log != nil {
		id, start = log.begin()
	}
	t0 := time.Now()
	sum, err := p.run(e.rt)
	dur := time.Since(t0)
	if log != nil {
		width := p.workers
		if p.exec == task.Sequential {
			width = 1
		}
		log.end(id, start, p.name, width)
	}
	if md != nil {
		runtime.ReadMemStats(&m1)
		md.add(&m0, &m1)
	}
	if err != nil {
		return runOut{}, fmt.Errorf("%s under %s: %w", p.name, detector, err)
	}
	out := runOut{dur: dur, sum: sum, races: e.sink.Races()}
	if e.rec != nil {
		out.snap = e.rec.Snapshot()
	}
	out.foot = e.rt.Detector().Footprint()
	return out, nil
}

func (md *memDelta) add(m0, m1 *runtime.MemStats) {
	md.mallocs += m1.Mallocs - m0.Mallocs
	md.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	md.gcs += m1.NumGC - m0.NumGC
	md.pauseNS += m1.PauseTotalNs - m0.PauseTotalNs
}

// checkRun applies the known-answer gate to one run.
func checkRun(g *gate, p *program, detector string, out runOut) {
	if p.kernel {
		ok := math.Abs(out.sum-p.want) <= 1e-6*(1+math.Abs(p.want))
		g.check(ok, "%s under %s: checksum %v, want %v", p.name, detector, out.sum, p.want)
		if detector != "none" {
			g.check(len(out.races) == 0, "%s under %s: %d races reported on a race-free kernel", p.name, detector, len(out.races))
		}
		return
	}
	g.check((len(out.races) > 0) == p.racy, "%s under %s: racy=%v, known answer racy=%v",
		p.name, detector, len(out.races) > 0, p.racy)
}

// library is one library workload's state.
type library struct {
	o      options
	spec   libSpec
	progs  []*program
	corpus *corpus
	rep    *report
	rng    *rand.Rand
}

func runLibrary(o options, rep *report) error {
	spec, err := librarySpec(o)
	if err != nil {
		return err
	}
	l := &library{o: o, spec: spec, rep: rep, rng: rand.New(rand.NewSource(o.seed))}
	var st setupTimer
	err = st.repeat(o.setups, l.setup)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		err = l.traced(deadline)
	} else {
		err = l.measure(deadline)
		rep.set(mSetupS, "s", st.median())
	}
	return err
}

// setup builds the inputs and their known answers and warms every code
// path with one detected run per program.
func (l *library) setup() error {
	l.progs = libraryPrograms(l.spec)
	if err := knownAnswers(l.progs); err != nil {
		return err
	}
	for _, p := range l.progs {
		if p.name == l.o.plant {
			p.want++
			p.racy = !p.racy
		}
	}
	if l.spec.corpus > 0 {
		c, err := newCorpus(l.o.seed, l.spec.corpus)
		if err != nil {
			return err
		}
		if l.o.plant == "corpus" {
			for i := range c.racy {
				c.racy[i] = !c.racy[i]
			}
		}
		l.corpus = c
	}
	for _, p := range l.progs {
		if _, err := timedRun(p, "spd3", l.spec.sampling, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// detPass is one detected pass over the workload's programs.
type detPass struct {
	wall time.Duration // summed detected run time
	snap stats.Snapshot
	foot detect.Footprint // summed over kernels
	md   memDelta
}

// measure interleaves base and detected runs of every kernel until the
// deadline (at least three rounds), in a seeded order per round.
func (l *library) measure(deadline time.Time) error {
	g := &l.rep.gate
	ratios := make(map[string][]float64)
	var passes []float64
	var p50, p90 []float64 // per round, over its detected run times
	var racyRuns, racyHits int
	var shadow float64

	if l.corpus != nil {
		// The corpus verdicts are deterministic for a seed (per-location
		// coins, a precise detector), so one pass gives race_recall.
		cr, err := l.corpus.run(g, l.spec.sampling, nil)
		if err != nil {
			return err
		}
		racyRuns, racyHits = cr.racy, cr.hits
		// Drop the corpus so its programs do not inflate the heap every
		// kernel run's garbage collections must mark.
		l.corpus = nil
	}
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		steal := startSteal()
		var pass time.Duration
		var runMS []float64
		var foot int64
		for pos, i := range l.rng.Perm(len(l.progs)) {
			p := l.progs[i]
			if !p.kernel {
				out, err := timedRun(p, "spd3", l.spec.sampling, nil, nil)
				if err != nil {
					return err
				}
				checkRun(g, p, "spd3", out)
				pass += out.dur
				runMS = append(runMS, ms(out.dur.Nanoseconds()))
				racyRuns++
				if len(out.races) > 0 {
					racyHits++
				}
				continue
			}
			var base, det runOut
			var err error
			for side := 0; side < 2; side++ {
				if (side == 0) == ((round+pos)%2 == 0) {
					base, err = timedRun(p, "none", "", nil, nil)
					if err == nil {
						checkRun(g, p, "none", base)
					}
				} else {
					det, err = timedRun(p, "spd3", l.spec.sampling, nil, nil)
					if err == nil {
						checkRun(g, p, "spd3", det)
					}
				}
				if err != nil {
					return err
				}
			}
			ratios[p.name] = append(ratios[p.name], det.dur.Seconds()/base.dur.Seconds())
			pass += det.dur
			foot += det.foot.Total()
			runMS = append(runMS, ms(det.dur.Nanoseconds()))
		}
		keep := steal.kept()
		for i := range runMS {
			runMS[i] *= keep
		}
		passes = append(passes, pass.Seconds()*keep)
		p50 = append(p50, quantile(runMS, 0.5))
		p90 = append(p90, quantile(runMS, 0.9))
		shadow = mb(foot)
	}
	var slow []float64
	for _, p := range l.progs {
		if p.kernel {
			slow = append(slow, median(ratios[p.name]))
		}
	}

	r := l.rep
	r.set(mSlowdown, "x", geomean(slow))
	r.set(mDetectS, "s", median(passes))
	r.set(mShadowMB, "MB", shadow)
	r.set(mRecall, "ratio", share(float64(racyHits), float64(racyRuns)))
	r.set(mJobsPerS, "jobs/s", float64(len(l.progs))/median(passes))
	r.set(mP50, "ms", median(p50))
	r.set(mP90, "ms", median(p90))
	r.set(mPeakRSS, "MB", peakRSSMB())
	return nil
}

// detectedPass runs every program once under the detector, traced when
// log is non-nil, and gates every verdict.
func (l *library) detectedPass(log *spanLog) (*detPass, error) {
	g := &l.rep.gate
	dp := &detPass{}
	for _, p := range l.progs {
		out, err := timedRun(p, "spd3", l.spec.sampling, log, &dp.md)
		if err != nil {
			return nil, err
		}
		checkRun(g, p, "spd3", out)
		dp.wall += out.dur
		dp.snap.Merge(out.snap)
		if p.kernel {
			dp.foot.ShadowBytes += out.foot.ShadowBytes
			dp.foot.TreeBytes += out.foot.TreeBytes
		}
	}
	if l.corpus != nil {
		cr, err := l.corpus.run(g, l.spec.sampling, log)
		if err != nil {
			return nil, err
		}
		dp.wall += cr.dur
		dp.snap.Merge(cr.snap)
		dp.md.add(&cr.m0, &cr.m1)
	}
	return dp, nil
}

// traced alternates untraced and traced detected passes until the
// deadline (at least two of each) and prints the per-layer metrics: counts
// from the untraced passes, times from the traced ones.
func (l *library) traced(deadline time.Time) error {
	var plain, traced []float64
	var selfMS, boundMS, boundEvents, boundNS, accessMS, accessNS, accesses []float64
	var last *detPass
	var lastLog *spanLog
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		dp, err := l.detectedPass(nil)
		if err != nil {
			return err
		}
		plain = append(plain, dp.wall.Seconds())
		last = dp

		log := newSpanLog()
		clock := clockOverheadNS(log)
		tp, err := l.detectedPass(log)
		if err != nil {
			return err
		}
		traced = append(traced, tp.wall.Seconds())
		lt := ledgerOf(log, clock)
		selfMS = append(selfMS, lt.selfMS)
		boundMS = append(boundMS, lt.boundaryMS)
		boundEvents = append(boundEvents, float64(lt.boundaryEvents))
		boundNS = append(boundNS, share(lt.boundaryMS*1e6, float64(lt.boundaryEvents)))
		accessMS = append(accessMS, lt.accessMS)
		accessNS = append(accessNS, lt.accessNS)
		accesses = append(accesses, float64(lt.accesses))
		lastLog = log
	}
	r := l.rep
	layerCounts(r, last.snap)
	s := last.snap
	tasks := float64(s.Get(stats.TaskSpawn))
	r.setLayer("task.allocs_per_task", share(float64(last.md.mallocs), tasks))
	r.setLayer("task.self_ms", median(selfMS))
	r.setLayer("detect.boundary_events", median(boundEvents))
	r.setLayer("detect.boundary_ns", median(boundNS))
	r.setLayer("detect.boundary_ms", median(boundMS))
	r.setLayer("detect.accesses", median(accesses))
	r.setLayer("detect.access_ns", median(accessNS))
	r.setLayer("detect.access_ms", median(accessMS))
	r.setLayer("footprint.tree_mb", mb(last.foot.TreeBytes))
	r.setLayer("footprint.shadow_mb", mb(last.foot.ShadowBytes))
	r.setLayer("alloc_mb", mb(int64(last.md.allocBytes)))
	r.setLayer("gc.cycles", float64(last.md.gcs))
	r.setLayer("gc.pause_ms", ms(int64(last.md.pauseNS)))
	r.setLayer("trace_overhead", median(traced)/median(plain))
	r.fillLayers()
	return lastLog.write(filepath.Join(l.o.work, "spans-"+l.o.workload+".jsonl"))
}

// layerCounts sets the per-layer metrics that come straight from a stats
// snapshot's counters.
func layerCounts(r *report, s stats.Snapshot) {
	get := func(c stats.Counter) float64 { return float64(s.Get(c)) }
	tasks := get(stats.TaskSpawn)
	r.setLayer("task.tasks", tasks)
	r.setLayer("task.steal_share", share(get(stats.TaskSteal), tasks))
	queries := get(stats.DMHPFast) + get(stats.DMHPWalk) + get(stats.DMHPMemoHit)
	r.setLayer("dmhp.queries", queries)
	r.setLayer("dmhp.walk_share", share(get(stats.DMHPWalk), queries))
	r.setLayer("dmhp.memo_hit_share", share(get(stats.DMHPMemoHit), queries))
	actions := get(stats.CASClean) + get(stats.CASPublish)
	r.setLayer("cas.publish_share", share(get(stats.CASPublish), actions))
	r.setLayer("cas.retry_share", share(get(stats.CASRetry), actions+get(stats.CASRetry)))
	r.setLayer("shadow.pages", get(stats.ShadowPagesAllocated))
	hits, misses := get(stats.PageCacheHit), get(stats.PageCacheMiss)
	r.setLayer("shadow.page_cache_hit_share", share(hits, hits+misses))
	acc := float64(s.Reads + s.Writes)
	r.setLayer("mem.accesses", acc)
	r.setLayer("mem.checks_per_access", share(actions+get(stats.MutexOps), acc))
	checked, skipped := get(stats.SampleChecked), get(stats.SampleSkipped)
	if checked+skipped > 0 {
		r.setLayer("sample.checked_share", share(checked, checked+skipped))
	} else {
		r.setLayer("sample.checked_share", 1)
	}
	r.setLayer("race.reported", get(stats.RaceReported))
	r.setLayer("race.deduped", get(stats.RaceDeduped))
}

// ledger is the traced pass's time split.
type ledger struct {
	kernelMS       float64 // Σ kernel span wall × width
	boundaryEvents int64
	boundaryMS     float64
	accesses       int64
	accessNS       float64 // mean per access, clock overhead removed
	accessMS       float64
	selfMS         float64
}

// ledgerOf splits the traced kernel time into detector boundary calls,
// detector access calls, and the rest (task.self_ms): every kernel span
// offers wall × width of goroutine time, width being the most goroutines
// that run detector calls at once (the pool's workers; 1 for a
// depth-first run or a replay).
func ledgerOf(log *spanLog, clockNS float64) ledger {
	var lt ledger
	log.mu.Lock()
	for _, s := range log.spans {
		if s.Parent == 0 {
			lt.kernelMS += ms(s.End-s.Start) * float64(s.Width)
		} else {
			lt.boundaryEvents++
			lt.boundaryMS += ms(s.End - s.Start)
		}
	}
	log.mu.Unlock()
	calls, sampled, sampledNS := log.accessTotals()
	lt.accesses = calls
	if sampled > 0 {
		lt.accessNS = math.Max(float64(sampledNS)/float64(sampled)-clockNS, 0)
	}
	lt.accessMS = float64(calls) * lt.accessNS / 1e6
	lt.selfMS = lt.kernelMS - lt.boundaryMS - lt.accessMS
	return lt
}
