package main

import (
	"ras/internal/metrics"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read from fewer samples is one or two outliers, not a percentile.
const minBeyond = 10

// tailPermille lists the candidate tail percentiles in tenths of a percent,
// highest first, so the sample-count test stays in integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when n is too small for
// even the median to qualify.
func tailPercentile(n int) (float64, bool) {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile is the p-th percentile of xs (linear interpolation between
// order statistics), 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	var s metrics.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// frac is failed/attempted, 0 when nothing was attempted.
func frac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// counters is a reading of the process-global internal/metrics counters the
// benchmark attributes to single calls. The counters are shared by every
// solve in the process, so a delta taken around one call is that call's
// work only because the benchmark runs one workload per process and makes
// its calls one at a time.
type counters struct {
	lpIters, lpDualIters, lpRefactors, lpSingularRepairs int64
	lpWarmHits, lpWarmMisses                             int64
	fallbackRebuilds                                     int64
}

func readCounters() counters {
	return counters{
		lpIters:           metrics.LP.Iterations.Value(),
		lpDualIters:       metrics.LP.DualIterations.Value(),
		lpRefactors:       metrics.LP.Refactorizations.Value(),
		lpSingularRepairs: metrics.LP.SingularRepairs.Value(),
		lpWarmHits:        metrics.LP.WarmHits.Value(),
		lpWarmMisses:      metrics.LP.WarmMisses.Value(),
		fallbackRebuilds:  metrics.Solver.FallbackRebuilds.Value(),
	}
}

// sub returns the counts accumulated between reading o and reading c.
func (c counters) sub(o counters) counters {
	return counters{
		lpIters:           c.lpIters - o.lpIters,
		lpDualIters:       c.lpDualIters - o.lpDualIters,
		lpRefactors:       c.lpRefactors - o.lpRefactors,
		lpSingularRepairs: c.lpSingularRepairs - o.lpSingularRepairs,
		lpWarmHits:        c.lpWarmHits - o.lpWarmHits,
		lpWarmMisses:      c.lpWarmMisses - o.lpWarmMisses,
		fallbackRebuilds:  c.fallbackRebuilds - o.fallbackRebuilds,
	}
}

// counted runs f and returns the counter work attributed to it.
func counted(f func()) counters {
	before := readCounters()
	f()
	return readCounters().sub(before)
}
