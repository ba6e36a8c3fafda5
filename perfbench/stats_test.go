package main

import (
	"testing"
	"time"

	"ras/internal/metrics"
	"ras/internal/mip"
	"ras/internal/solver"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has only 9.5 samples beyond
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean(xs); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || mean(nil) != 0 {
		t.Error("empty sample must read 0")
	}
}

// TestTimeLimited checks that a phase counts as time-limited only when it
// ran up to its limit without finishing on its own: a phase proven optimal
// or stopped by its node budget just under the limit did not time out.
func TestTimeLimited(t *testing.T) {
	limit, maxNodes := 10*time.Second, 100
	for _, c := range []struct {
		total  time.Duration
		status mip.Status
		nodes  int
		want   bool
	}{
		{9 * time.Second, mip.Feasible, 40, false},
		{9790 * time.Millisecond, mip.Feasible, 40, false},
		{9800 * time.Millisecond, mip.Feasible, 40, true},
		{10020 * time.Millisecond, mip.NoSolution, 0, true}, // root LP stall
		{9900 * time.Millisecond, mip.Optimal, 40, false},
		{9900 * time.Millisecond, mip.Feasible, maxNodes, false},
	} {
		ph := solver.PhaseStats{MIP: c.total, Status: c.status, Nodes: c.nodes}
		if got := phaseOf(ph, limit, maxNodes).TimeLimited; got != c.want {
			t.Errorf("%v %v after %d nodes: time-limited = %v, want %v", c.total, c.status, c.nodes, got, c.want)
		}
	}
	if timeLimited(2*time.Second, 2*time.Second, true) {
		t.Error("a search that spent its step budget at the limit is not time-limited")
	}
}

// TestFailureDenominators pins what counts as failed and against what:
// round_fail_frac counts errors, missing solutions and time-limited rounds
// against all rounds, touch-ups included; the result line's failed count
// leaves time-limited rounds out (they still return a checked assignment)
// and adds refused placements and failed stops and capacity requests.
func TestFailureDenominators(t *testing.T) {
	b := &bench{
		rounds: []roundRec{
			{Status: "optimal", WallS: 1},
			{Status: "feasible", WallS: 10, Failed: true, Reason: "time limit"},
			{Status: "error", Failed: true, Reason: "error: boom"},
			{Status: "no-solution", WallS: 2, Failed: true, Reason: "no solution"},
			{Status: "feasible", WallS: 0.1, TouchUp: true, Backend: "localsearch"},
		},
		placeTried: 10, placeFails: 2,
		stopTried: 5, stopFails: 1,
		capTried: 3,
	}
	var fail metric
	for _, m := range b.endToEnd() {
		if m.name == "round_fail_frac" {
			fail = m.metric
		}
		if m.name == "place_fail_frac" && m.Value != 0.2 {
			t.Errorf("place_fail_frac = %v, want 0.2", m.Value)
		}
	}
	if fail.Value != 3.0/5 {
		t.Errorf("round_fail_frac = %v, want 3/5", fail.Value)
	}
	attempted, failed := b.operations()
	if attempted != 5+10+5+3 {
		t.Errorf("attempted = %d, want 23", attempted)
	}
	if failed != 2+2+1 {
		t.Errorf("failed = %d, want 5 (2 rounds, 2 placements, 1 stop)", failed)
	}
	if got := walls(b.rounds); len(got) != 4 {
		t.Errorf("round latencies %v: touch-ups must be left out", got)
	}
	if got := cpus(b.rounds); len(got) != 4 {
		t.Errorf("round CPU times %v: touch-ups must be left out", got)
	}
	if frac(1, 0) != 0 {
		t.Error("frac with nothing attempted must be 0")
	}
}

// TestCounterAttribution checks that a delta taken around one call holds
// that call's work and nothing done before or after it.
func TestCounterAttribution(t *testing.T) {
	metrics.LP.Iterations.Add(100) // earlier work
	first := counted(func() {
		metrics.LP.Iterations.Add(7)
		metrics.LP.DualIterations.Add(2)
		metrics.Solver.FallbackRebuilds.Add(1)
	})
	metrics.LP.Iterations.Add(50) // work between the calls
	second := counted(func() { metrics.LP.Iterations.Add(3) })

	if first.lpIters != 7 || first.lpDualIters != 2 || first.fallbackRebuilds != 1 {
		t.Errorf("first call: %+v, want 7 iterations, 2 dual, 1 fallback", first)
	}
	if second != (counters{lpIters: 3}) {
		t.Errorf("second call: %+v, want only 3 iterations", second)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("ras.SolveWith", 0)
	eval := tr.begin("solver.Evaluate", 0)
	time.Sleep(2 * time.Millisecond)
	tr.end(eval)
	time.Sleep(time.Millisecond)
	tr.end(outer)
	tr.end(tr.begin("health.Tick", 1))

	if tr.spans[1].Parent != outer || tr.spans[2].Parent != -1 {
		t.Fatalf("parents %d, %d; want %d, -1", tr.spans[1].Parent, tr.spans[2].Parent, outer)
	}
	layers := map[string]layerTime{}
	for _, lt := range tr.layers() {
		layers[lt.Name] = lt
	}
	solve, ev := layers["ras.SolveWith"], layers["solver.Evaluate"]
	if got, want := solve.SelfS, solve.TotalS-ev.TotalS; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("self time %v, want total %v minus child %v", got, solve.TotalS, ev.TotalS)
	}
	if ev.SelfS != ev.TotalS || layers["health.Tick"].Count != 1 {
		t.Errorf("leaf spans: %+v %+v", ev, layers["health.Tick"])
	}
	var off *tracer
	off.end(off.begin("x", 0)) // a nil tracer records nothing and must not panic
}
