package detectors_test

import (
	"fmt"
	"reflect"
	"testing"

	"spd3/internal/detect"
	_ "spd3/internal/detectors"
	"spd3/internal/progen"
	"spd3/internal/sample"
	"spd3/internal/task"
)

// allDetectors is every registered detector: the listed ones plus the
// hidden spd3-walk reference variant.
func allDetectors() []string { return append(detect.Names(), "spd3-walk") }

// TestSamplerWrapsEveryDetector: the registry's sampling wrapper is the
// only gate, so New must wrap every detector when the sampler is
// enabled, and the wrapper must keep the optional interfaces verdicts
// depend on.
func TestSamplerWrapsEveryDetector(t *testing.T) {
	smp := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 0.5})
	for _, name := range allDetectors() {
		plain, err := detect.New(name, detect.FactoryOpts{Sink: detect.NewSink(false, 0)})
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := detect.New(name, detect.FactoryOpts{Sink: detect.NewSink(false, 0), Sampler: smp})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(plain) == reflect.TypeOf(wrapped) {
			t.Errorf("sampled %s detector is still %T; want the sampling wrapper", name, wrapped)
		}
		if _, ok := plain.(detect.BarrierObserver); ok {
			if _, ok := wrapped.(detect.BarrierObserver); !ok {
				t.Errorf("sampled %s detector lost BarrierObserver", name)
			}
		}
		if _, ok := plain.NewShadow(detect.Spec("v", 4, 8)).(detect.SiteShadow); ok {
			if _, ok := wrapped.NewShadow(detect.Spec("v", 4, 8)).(detect.SiteShadow); !ok {
				t.Errorf("sampled %s shadow lost SiteShadow", name)
			}
		}
	}
	ft, err := detect.New("fasttrack", detect.FactoryOpts{Sink: detect.NewSink(false, 0), Sampler: smp})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ft.(detect.BarrierObserver); !ok {
		t.Error("sampled fasttrack is not a BarrierObserver")
	}
	sd, err := detect.New("spd3", detect.FactoryOpts{Sink: detect.NewSink(false, 0), Sampler: smp})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sd.NewShadow(detect.Spec("v", 4, 8)).(detect.SiteShadow); !ok {
		t.Error("sampled spd3 shadow is not a SiteShadow")
	}
}

// racyCells runs generated program seed under the named detector gated
// by smp (nil: no sampling) and returns the set of racy (region, index)
// pairs.
func racyCells(t *testing.T, name string, seed int64, cfg progen.Config, smp *sample.Sampler) map[string]bool {
	t.Helper()
	sink := detect.NewSink(false, 0)
	det, err := detect.New(name, detect.FactoryOpts{Sink: sink, Sampler: smp})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, progen.Generate(seed, cfg), nil); err != nil {
		t.Fatal(err)
	}
	cells := map[string]bool{}
	for _, r := range sink.Races() {
		cells[fmt.Sprintf("%s[%d]", r.Region, r.Index)] = true
	}
	return cells
}

// TestSampledRacesAreSubsetEveryDetector: a skipped check only omits a
// recording, so under every detector and every mode a sampled run may
// report fewer racy locations than the full run, never another one.
// oslabel runs on strict fork-join programs only: it is unsound on
// anything else, and there a sampled run can report a location its full
// run misses.
func TestSampledRacesAreSubsetEveryDetector(t *testing.T) {
	const seeds = 150
	for _, name := range allDetectors() {
		var cfg progen.Config
		if name == "oslabel" {
			cfg.Strict = true
		}
		for _, mode := range []sample.Mode{sample.Bernoulli, sample.Page, sample.Burst} {
			for seed := int64(0); seed < seeds; seed++ {
				full := racyCells(t, name, seed, cfg, nil)
				smp := sample.NewSeeded(sample.Config{Mode: mode, Rate: 0.3}, uint64(seed))
				for cell := range racyCells(t, name, seed, cfg, smp) {
					if !full[cell] {
						t.Errorf("%s %v seed %d: sampled run reports %s, full run does not", name, mode, seed, cell)
					}
				}
			}
		}
	}
}
