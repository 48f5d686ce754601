package progen

import (
	"fmt"
	"math/rand"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/graph"
	"spd3/internal/shadow"
	"spd3/internal/task"
)

// pagedAndOracle runs body twice on a fresh sequential runtime — once
// under default SPD3 over its paged shadow, once under the graph oracle,
// whose flat per-element access logs do not touch shadow.Pages — and
// returns each side's set of racy (region, index) locations.
func pagedAndOracle(t *testing.T, body func(rt *task.Runtime, det detect.Detector) error) (paged, oracle map[string]bool) {
	t.Helper()
	locs := func(races []detect.Race) map[string]bool {
		set := map[string]bool{}
		for _, r := range races {
			set[fmt.Sprintf("%s[%d]", r.Region, r.Index)] = true
		}
		return set
	}
	run := func(det detect.Detector) {
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		if err := body(rt, det); err != nil {
			t.Fatal(err)
		}
	}
	sink := detect.NewSink(false, 0)
	run(core.NewWith(sink, core.Options{Sync: core.SyncCAS}))
	o := graph.New()
	run(o)
	return locs(sink.Races()), locs(o.Races())
}

// TestPagedMatchesFlatOnPrograms is the paging differential
// quick-check: the paged shadow must flag exactly the racy locations the
// oracle finds in its flat access logs — the backing store is a pure
// representation change.
func TestPagedMatchesFlatOnPrograms(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := Generate(seed, Config{})
		paged, oracle := pagedAndOracle(t, func(rt *task.Runtime, _ detect.Detector) error {
			return Run(rt, p, nil)
		})
		if len(paged) != len(oracle) {
			t.Fatalf("seed %d: paged %v != oracle %v\n%s", seed, paged, oracle, p)
		}
		for k := range paged {
			if !oracle[k] {
				t.Fatalf("seed %d: race %s reported by paged only\n%s", seed, k, p)
			}
		}
	}
}

// TestPagedFlatAgreeAcrossPageBoundaries hammers random sparse
// indices clustered around shadow page boundaries — the indices most
// likely to expose page-clipping or directory-indexing bugs — and checks
// that the paged shadow flags exactly the racy locations the oracle finds
// in its flat access logs.
func TestPagedFlatAgreeAcrossPageBoundaries(t *testing.T) {
	const (
		elems  = 3*shadow.PageSize + 7 // four pages, short last page
		tasks  = 8
		events = 40
	)
	type acc struct {
		idx   int
		write bool
	}
	for trial := int64(0); trial < 25; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		scripts := make([][]acc, tasks)
		for ti := range scripts {
			for e := 0; e < events; e++ {
				// Bias indices to within a few cells of a page boundary.
				idx := rng.Intn(4)*shadow.PageSize + rng.Intn(7) - 3
				if idx < 0 {
					idx = 0
				}
				if idx >= elems {
					idx = elems - 1
				}
				scripts[ti] = append(scripts[ti], acc{idx: idx, write: rng.Intn(3) == 0})
			}
		}
		paged, oracle := pagedAndOracle(t, func(rt *task.Runtime, det detect.Detector) error {
			sh := det.NewShadow(detect.Spec("v", elems, 8))
			return rt.Run(func(c *task.Ctx) {
				c.Finish(func(c *task.Ctx) {
					for _, s := range scripts {
						s := s
						c.Async(func(c *task.Ctx) {
							for _, a := range s {
								if a.write {
									sh.Write(c.Task(), a.idx)
								} else {
									sh.Read(c.Task(), a.idx)
								}
							}
						})
					}
				})
			})
		})
		if len(paged) != len(oracle) {
			t.Fatalf("trial %d: paged %v != oracle %v", trial, paged, oracle)
		}
		for k := range paged {
			if !oracle[k] {
				t.Fatalf("trial %d: race %s reported by paged only", trial, k)
			}
		}
	}
}
