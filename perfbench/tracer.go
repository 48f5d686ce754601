package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spd3/internal/detect"
)

// span is one traced interval: a kernel run, a structural event inside
// it, or a service job stage. Times are nanoseconds since the log's
// epoch; Parent is 0 for a root span. Width is the most goroutines a
// kernel span runs detector calls on at once.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Width  int    `json:"width,omitempty"`
}

// spanLog keeps spans in memory until the run writes them out, together
// with the shadow-access tallies of every timedDetector recording into it.
type spanLog struct {
	epoch  time.Time
	ids    atomic.Int64
	parent atomic.Int64 // the current kernel span
	mu     sync.Mutex
	spans  []span
	shards [64]timingShard
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// open reserves a span ID; close records the finished span.
func (l *spanLog) open() int64 { return l.ids.Add(1) }

func (l *spanLog) close(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// add records a finished child span under a fresh ID.
func (l *spanLog) add(parent int64, name string, start, end int64) {
	l.close(span{ID: l.open(), Parent: parent, Name: name, Start: start, End: end})
}

// begin opens a kernel span and makes it the parent of event spans.
func (l *spanLog) begin() (id, start int64) {
	id = l.open()
	l.parent.Store(id)
	return id, l.now()
}

// end closes the kernel span opened by begin.
func (l *spanLog) end(id, start int64, name string, width int) {
	l.close(span{ID: id, Name: name, Start: start, End: l.now(), Width: width})
}

// accessTotals returns the counted shadow calls and the timed subsample.
func (l *spanLog) accessTotals() (calls, sampled, sampledNS int64) {
	for i := range l.shards {
		calls += l.shards[i].calls.Load()
		sampled += l.shards[i].sampled.Load()
		sampledNS += l.shards[i].sampledNS.Load()
	}
	return
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accessSampleMask selects the timed subsample of shadow accesses: one
// call in 64 per timing shard is timed; every call is counted.
const accessSampleMask = 63

// timingShard holds one slice of the access tallies, padded to its own
// cache line so the pool's workers do not share one.
type timingShard struct {
	calls     atomic.Int64
	sampled   atomic.Int64
	sampledNS atomic.Int64
	_         [40]byte
}

// timedDetector decorates a detect.Detector: each structural event
// (BeforeSpawn, TaskEnd, FinishStart, FinishEnd) becomes a child span of
// the current kernel span, and shadow reads and writes are counted in
// full and timed on a deterministic subsample. Everything else passes
// straight through.
type timedDetector struct {
	inner detect.Detector
	log   *spanLog
}

// newTimedDetector wraps d, keeping the optional BarrierObserver
// interface when d has it (losing it would change what the runtime tells
// a barrier-aware detector).
func newTimedDetector(d detect.Detector, log *spanLog) detect.Detector {
	td := &timedDetector{inner: d, log: log}
	if bo, ok := d.(detect.BarrierObserver); ok {
		return &timedBarrierDetector{timedDetector: td, bo: bo}
	}
	return td
}

func (d *timedDetector) Name() string                              { return d.inner.Name() }
func (d *timedDetector) RequiresSequential() bool                  { return d.inner.RequiresSequential() }
func (d *timedDetector) MainTask(t *detect.Task, f *detect.Finish) { d.inner.MainTask(t, f) }
func (d *timedDetector) Acquire(t *detect.Task, l *detect.Lock)    { d.inner.Acquire(t, l) }
func (d *timedDetector) Release(t *detect.Task, l *detect.Lock)    { d.inner.Release(t, l) }
func (d *timedDetector) Footprint() detect.Footprint               { return d.inner.Footprint() }

func (d *timedDetector) BeforeSpawn(parent, child *detect.Task) {
	start := d.log.now()
	d.inner.BeforeSpawn(parent, child)
	d.log.add(d.log.parent.Load(), "spawn", start, d.log.now())
}

func (d *timedDetector) TaskEnd(t *detect.Task) {
	start := d.log.now()
	d.inner.TaskEnd(t)
	d.log.add(d.log.parent.Load(), "task_end", start, d.log.now())
}

func (d *timedDetector) FinishStart(t *detect.Task, f *detect.Finish) {
	start := d.log.now()
	d.inner.FinishStart(t, f)
	d.log.add(d.log.parent.Load(), "finish_start", start, d.log.now())
}

func (d *timedDetector) FinishEnd(t *detect.Task, f *detect.Finish) {
	start := d.log.now()
	d.inner.FinishEnd(t, f)
	d.log.add(d.log.parent.Load(), "finish_end", start, d.log.now())
}

// NewShadow wraps the inner shadow, keeping SiteShadow when it has it.
func (d *timedDetector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	inner := d.inner.NewShadow(spec)
	ts := timedShadow{d: d, inner: inner}
	if ss, ok := inner.(detect.SiteShadow); ok {
		return &timedSiteShadow{timedShadow: ts, site: ss}
	}
	return &ts
}

// timedBarrierDetector additionally forwards barrier events.
type timedBarrierDetector struct {
	*timedDetector
	bo detect.BarrierObserver
}

func (d *timedBarrierDetector) BarrierArrive(t *detect.Task, b *detect.BarrierInfo, gen int) {
	d.bo.BarrierArrive(t, b, gen)
}

func (d *timedBarrierDetector) BarrierDepart(t *detect.Task, b *detect.BarrierInfo, gen int) {
	d.bo.BarrierDepart(t, b, gen)
}

// timedShadow counts and subsample-times one region's accesses.
type timedShadow struct {
	d     *timedDetector
	inner detect.Shadow
}

// shard picks the task's tally slice and reports whether this call is
// in the timed subsample.
func (s *timedShadow) shard(t *detect.Task) (*timingShard, bool) {
	sh := &s.d.log.shards[t.ID&63]
	return sh, sh.calls.Add(1)&accessSampleMask == 0
}

func (s *timedShadow) Read(t *detect.Task, i int) {
	sh, timed := s.shard(t)
	if !timed {
		s.inner.Read(t, i)
		return
	}
	start := s.d.log.now()
	s.inner.Read(t, i)
	sh.sampledNS.Add(s.d.log.now() - start)
	sh.sampled.Add(1)
}

func (s *timedShadow) Write(t *detect.Task, i int) {
	sh, timed := s.shard(t)
	if !timed {
		s.inner.Write(t, i)
		return
	}
	start := s.d.log.now()
	s.inner.Write(t, i)
	sh.sampledNS.Add(s.d.log.now() - start)
	sh.sampled.Add(1)
}

// timedSiteShadow preserves site attribution through the decorator.
type timedSiteShadow struct {
	timedShadow
	site detect.SiteShadow
}

func (s *timedSiteShadow) ReadAt(t *detect.Task, i int, site uintptr) {
	sh, timed := s.shard(t)
	if !timed {
		s.site.ReadAt(t, i, site)
		return
	}
	start := s.d.log.now()
	s.site.ReadAt(t, i, site)
	sh.sampledNS.Add(s.d.log.now() - start)
	sh.sampled.Add(1)
}

func (s *timedSiteShadow) WriteAt(t *detect.Task, i int, site uintptr) {
	sh, timed := s.shard(t)
	if !timed {
		s.site.WriteAt(t, i, site)
		return
	}
	start := s.d.log.now()
	s.site.WriteAt(t, i, site)
	sh.sampledNS.Add(s.d.log.now() - start)
	sh.sampled.Add(1)
}

// clockOverheadNS estimates the cost of one empty timed region (two
// clock reads), the bias every subsampled access time carries.
func clockOverheadNS(log *spanLog) float64 {
	const n = 1 << 14
	samples := make([]float64, 0, 16)
	for r := 0; r < 16; r++ {
		var sum int64
		for i := 0; i < n; i++ {
			start := log.now()
			sum += log.now() - start
		}
		samples = append(samples, float64(sum)/n)
	}
	return median(samples)
}

var (
	_ detect.Detector        = (*timedDetector)(nil)
	_ detect.BarrierObserver = (*timedBarrierDetector)(nil)
	_ detect.SiteShadow      = (*timedSiteShadow)(nil)
)
