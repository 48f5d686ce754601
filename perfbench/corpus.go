package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spd3/internal/graph"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// corpusConfig shapes the sampled workload's random async/finish
// programs: small enough that the DAG oracle judges thousands of them in
// set-up, with enough shared variables that races land on several
// locations (and so on several sampling coins).
var corpusConfig = progen.Config{Vars: 8, MaxDepth: 5, MaxStmts: 40}

// corpus is a seeded progen corpus with the DAG oracle's verdict for
// every program: the known answers race_recall is measured against.
type corpus struct {
	progs []*progen.Program
	racy  []bool
	nRacy int
}

func newCorpus(seed int64, n int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	for i := 0; i < n; i++ {
		p := progen.Generate(rng.Int63(), corpusConfig)
		o := graph.New()
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: o})
		if err != nil {
			return nil, err
		}
		if err := progen.Run(rt, p, nil); err != nil {
			return nil, fmt.Errorf("progen seed %d under the oracle: %w", p.Seed, err)
		}
		racy := o.HasRace()
		c.progs = append(c.progs, p)
		c.racy = append(c.racy, racy)
		if racy {
			c.nRacy++
		}
	}
	if c.nRacy == 0 {
		return nil, fmt.Errorf("progen corpus of %d programs has no racy program", n)
	}
	return c, nil
}

// corpusRun is one detected pass over the corpus.
type corpusRun struct {
	dur        time.Duration // summed program run time
	racy, hits int           // racy programs, and those reported racy
	snap       stats.Snapshot
	m0, m1     runtime.MemStats
}

// run executes the whole corpus as consecutive runs of one engine, the
// way a long-lived spd3.Engine serves many inputs: each program's shadow
// is a fresh region, so each draws its own sampling coins. A program
// counts as reported racy when the sink saw a race during its run
// (reported or, for a location label seen before, deduplicated). A race
// on a race-free program is a false positive and fails the gate.
func (c *corpus) run(g *gate, sampling string, log *spanLog) (corpusRun, error) {
	var cr corpusRun
	e, err := newEngine("spd3", sampling, task.Sequential, 1, log)
	if err != nil {
		return cr, err
	}
	runtime.GC()
	runtime.ReadMemStats(&cr.m0)
	var id, start int64
	if log != nil {
		id, start = log.begin()
	}
	var seen int64
	for i, p := range c.progs {
		t0 := time.Now()
		err := progen.Run(e.rt, p, nil)
		cr.dur += time.Since(t0)
		if err != nil {
			return cr, fmt.Errorf("progen seed %d: %w", p.Seed, err)
		}
		s := e.rec.Snapshot()
		n := s.Get(stats.RaceReported) + s.Get(stats.RaceDeduped)
		found := n > seen
		seen = n
		if c.racy[i] {
			cr.racy++
			if found {
				cr.hits++
			}
			g.check(true, "")
			continue
		}
		g.check(!found, "progen seed %d: race reported on a program the oracle finds race-free", p.Seed)
	}
	if log != nil {
		// The span covers the program runs only, not the bookkeeping
		// between them.
		log.close(span{ID: id, Name: "progen-corpus", Start: start, End: start + cr.dur.Nanoseconds(), Width: 1})
	}
	runtime.ReadMemStats(&cr.m1)
	cr.snap = e.rec.Snapshot()
	return cr, nil
}
