package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/task"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at a tiny size and returns its exit code and
// decoded result line.
func runTiny(t *testing.T, bin, workload string, traced bool, extra ...string) (int, result) {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"-workload", workload, "-seed", "3", "-seconds", "0.2", "-trace", tr,
		"-setups", "1", "-scale", "0.1", "-corpus", "300", "-bin", bin, "-work", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, err, stdout.String(), stderr.String())
	}
	return code, r
}

// runsRacyInParallel reports whether a workload runs the racy variants
// on a parallel executor.
func runsRacyInParallel(workload string) bool {
	return workload == "fine" || workload == "chunked"
}

// daemonBin builds spd3d for the service workload.
func daemonBin(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "spd3d"), "spd3/cmd/spd3d")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spd3d: %v\n%s", err, out)
	}
	return dir
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of
// BENCHMARK.json at a tiny size, untraced and traced, and checks that
// the result line carries every named metric with its declared unit,
// that the gate passed, and that end-to-end metrics are never 0.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	bin := daemonBin(t)
	for _, w := range b.Workloads {
		if raceDetector && runsRacyInParallel(w.Name) {
			t.Logf("skipping %s under -race: it runs deliberately racy programs in parallel", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			code, r := runTiny(t, bin, w.Name, traced)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, correct=%v attempted=%d failed=%d",
					w.Name, traced, code, r.Correct, r.Attempted, r.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateTripsOnPlantedWrongAnswer plants a wrong known answer — a
// checksum, a racy verdict, a race digest — and checks that the run
// reports correct=false with failures and exits non-zero.
func TestGateTripsOnPlantedWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	bin := daemonBin(t)
	for _, c := range []struct{ workload, plant string }{
		{"fine", "SOR"},               // wrong checksum
		{"chunked", "BuggyBarrier"},   // flipped verdict
		{"sampled", "corpus"},         // flipped oracle answers
		{"service", "RacyMonteCarlo"}, // wrong race digest
	} {
		if raceDetector && runsRacyInParallel(c.workload) {
			continue
		}
		code, r := runTiny(t, bin, c.workload, false, "-plant", c.plant)
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s with %s planted: exit %d, correct=%v failed=%d; want the gate to trip",
				c.workload, c.plant, code, r.Correct, r.Failed)
		}
	}
}

// TestDecoratorKeepsRaceDigest checks that the timing decorator changes
// nothing a detector reports: each racy variant of the fine workload
// yields the same race digest wrapped and unwrapped (depth-first for the
// two that can run so, where the event order is fixed; BarrierSOR's racy
// locations under the goroutine executor, whose interleaving may change
// a race's kind but not its location).
func TestDecoratorKeepsRaceDigest(t *testing.T) {
	in := bench.Input{Scale: 0.5}
	for _, rb := range bench.Racy() {
		exec, full := task.Sequential, true
		if rb.NeedsParallel {
			exec, full = task.Goroutines, false
		}
		var digests [2]string
		for i, log := range []*spanLog{nil, newSpanLog()} {
			e, err := newEngine("spd3", "", exec, workers, log)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rb.Run(e.rt, in); err != nil {
				t.Fatalf("%s: %v", rb.Name, err)
			}
			var keys []string
			for _, r := range e.sink.Races() {
				kind := r.Kind.String()
				if !full {
					kind = "any"
				}
				keys = append(keys, raceKey("spd3", kind, r.Region, r.Index))
			}
			if len(keys) == 0 {
				t.Fatalf("%s reported no race", rb.Name)
			}
			digests[i] = digest(keys)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s unwrapped, %s under the timing decorator", rb.Name, digests[0], digests[1])
		}
	}
}

// TestLedgerAccountsForKernelTime checks the traced split on a real
// kernel: boundary and access time fit inside the kernel's goroutine
// time, so task.self_ms is non-negative and the three parts sum to it.
func TestLedgerAccountsForKernelTime(t *testing.T) {
	b, err := bench.ByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	p := &program{name: b.Name, kernel: true, exec: task.Pool, workers: workers,
		run: func(rt *task.Runtime) (float64, error) { return b.Run(rt, bench.Input{Scale: 0.3}) }}
	log := newSpanLog()
	clock := clockOverheadNS(log)
	var md memDelta
	if _, err := timedRun(p, "spd3", "", log, &md); err != nil {
		t.Fatal(err)
	}
	lt := ledgerOf(log, clock)
	if lt.boundaryEvents == 0 || lt.accesses == 0 {
		t.Fatalf("ledger saw %d boundary events, %d accesses", lt.boundaryEvents, lt.accesses)
	}
	if lt.selfMS < 0 {
		t.Errorf("self time %.3f ms < 0: boundary %.3f + access %.3f exceed kernel %.3f",
			lt.selfMS, lt.boundaryMS, lt.accessMS, lt.kernelMS)
	}
	if sum := lt.selfMS + lt.boundaryMS + lt.accessMS; sum < lt.kernelMS*0.999 || sum > lt.kernelMS*1.001 {
		t.Errorf("self+boundary+access = %.3f ms, kernel goroutine time %.3f ms", sum, lt.kernelMS)
	}
}
