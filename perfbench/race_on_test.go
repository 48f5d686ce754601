//go:build race

package main

// raceDetector reports whether the tests run under -race. The fine and
// chunked workloads execute the deliberately racy variants on the
// parallel pool, real data races the race detector rightly reports, so
// the tests that run them skip under -race.
const raceDetector = true
