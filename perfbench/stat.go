package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy),
// or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, or 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mb converts bytes to MiB.
func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// stealMeter measures hypervisor steal: the share of this VM's CPU time
// the host gave to other guests. Wall-clock metrics swing with it on a
// shared host, so every run reports it alongside its result.
type stealMeter struct {
	ticks int64
	start time.Time
}

func startSteal() stealMeter { return stealMeter{stealTicks(), time.Now()} }

// share returns the stolen fraction of CPU time since the meter started.
func (m stealMeter) share() float64 {
	cpu := time.Since(m.start).Seconds() * float64(runtime.NumCPU())
	return share(float64(stealTicks()-m.ticks)/userHZ, cpu)
}

// kept returns the share of the interval since the meter started in
// which the host left the benchmark its CPUs. The work keeps the
// machine's workers vCPUs busy (pool workers, the collector, the daemon)
// and stalls at the next join while any of them is stolen,
// so with a stolen share s of CPU time, spread independently over the
// vCPUs, it ran unhindered for (1-s)^workers of the interval. A wall time
// times kept is then the time the work needed on the CPUs it was given:
// on a shared host raw wall times move with other guests' load, the kept
// time with this program's. The stolen share is capped at one half,
// past which the host, not the program, sets the time.
func (m stealMeter) kept() float64 {
	return math.Pow(1-math.Min(m.share(), 0.5), workers)
}

// userHZ is the tick rate of /proc/stat's counters.
const userHZ = 100

// stealTicks returns the total stolen CPU time, in ticks summed over
// CPUs, from /proc/stat (0 where unavailable).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
