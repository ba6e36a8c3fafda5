package main

import "time"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type named struct {
	name string
	metric
}

// boundedEndToEnd names the end-to-end metrics BENCHMARK.json bounds, which
// the untraced run's result line carries. They are the ones every workload
// measures, that are never zero, and whose spread across seeds stays within
// a bound: CPU times rather than wall times, which move with the host (see
// processCPU). The others are printed above the result line and carried by
// the traced run under their layer's name.
var boundedEndToEnd = map[string]bool{
	"setup_s": true, "round_cpu_p50_s": true, "round_cpu_mean_s": true, "peak_heap_mb": true,
}

func hourly(r roundRec) bool { return !r.TouchUp }

// walls returns the wall-clock time of every round but the touch-ups.
func walls(rs []roundRec) []float64 {
	return over(rs, hourly, func(r roundRec) float64 { return r.WallS })
}

// cpus returns the CPU time of the same rounds.
func cpus(rs []roundRec) []float64 {
	return over(rs, hourly, func(r roundRec) float64 { return r.CPUS })
}

// over returns f of every round for which keep holds (all rounds when keep
// is nil).
func over(rs []roundRec, keep func(roundRec) bool, f func(roundRec) float64) []float64 {
	var out []float64
	for _, r := range rs {
		if keep == nil || keep(r) {
			out = append(out, f(r))
		}
	}
	return out
}

func solved(r roundRec) bool    { return len(r.Phases) > 0 }
func isPOP(r roundRec) bool     { return r.POPParts > 0 }
func isLocal(r roundRec) bool   { return r.TouchUp && r.Status != "error" }
func evaluated(r roundRec) bool { return r.Status != "error" && r.Reason != "no solution" }

// roundFailures counts rounds that errored, returned no solution or reached
// a phase time limit.
func roundFailures(rs []roundRec) int {
	n := 0
	for _, r := range rs {
		if r.Failed {
			n++
		}
	}
	return n
}

// operations returns the attempted and failed operation counts of the
// result line. An operation fails when it produced no usable result: a
// round that errored or returned no solution, a refused container
// placement, a failed stop or capacity request. A round that reached its
// time limit still returns a checked assignment; it counts in
// round_fail_frac, not here.
func (b *bench) operations() (attempted, failed int) {
	attempted = len(b.rounds) + b.placeTried + b.stopTried + b.capTried
	failed = b.placeFails + b.stopFails + b.capFails
	for _, r := range b.rounds {
		if r.Failed && r.Reason != "time limit" {
			failed++
		}
	}
	return attempted, failed
}

func (b *bench) endToEnd() []named {
	rs := b.rounds
	placeP99 := 0.0
	if len(b.placeUS) > 0 {
		placeP99 = percentile(b.placeUS, 99)
	}
	var repl, miss int
	for _, r := range rs {
		repl += r.Replacements
		miss += r.ReplaceMiss
	}
	return []named{
		{"setup_s", metric{percentile(b.setupS, 50), "s"}},
		{"round_p50_s", metric{percentile(walls(rs), 50), "s"}},
		{"round_mean_s", metric{mean(walls(rs)), "s"}},
		{"round_cpu_p50_s", metric{percentile(cpus(rs), 50), "s"}},
		{"round_cpu_mean_s", metric{mean(cpus(rs)), "s"}},
		{"round_fail_frac", metric{frac(roundFailures(rs), len(rs)), "frac"}},
		{"objective_mean", metric{mean(over(rs, evaluated, func(r roundRec) float64 { return r.Objective })), "cost"}},
		{"moves_in_use", metric{mean(over(rs, nil, func(r roundRec) float64 { return float64(r.MovesInUse) })), "count/round"}},
		{"moves_idle", metric{mean(over(rs, nil, func(r roundRec) float64 { return float64(r.MovesIdle) })), "count/round"}},
		{"capacity_short_rru", metric{mean(over(rs, evaluated, func(r roundRec) float64 { return r.ShortRRU })), "RRU"}},
		{"replace_miss_frac", metric{frac(miss, repl+miss), "frac"}},
		{"place_p50_us", metric{percentile(b.placeUS, 50), "us"}},
		{"place_p99_us", metric{placeP99, "us"}},
		{"place_fail_frac", metric{frac(b.placeFails, b.placeTried), "frac"}},
		{"peak_heap_mb", metric{float64(b.heapPeak.Load()) / (1 << 20), "MB"}},
	}
}

// layerE2E maps the end-to-end metrics that carry no bound to the layer
// whose name the traced run reports them under.
var layerE2E = map[string]string{
	"round_p50_s":        "ras.round_p50_s",
	"round_mean_s":       "ras.round_mean_s",
	"round_fail_frac":    "ras.round_fail_frac",
	"objective_mean":     "solver.objective_mean",
	"moves_in_use":       "mover.moves_in_use",
	"moves_idle":         "mover.moves_idle",
	"capacity_short_rru": "ras.capacity_short_rru",
	"replace_miss_frac":  "mover.replace_miss_frac",
	"place_p50_us":       "allocator.place_p50_us",
	"place_p99_us":       "allocator.place_p99_us",
	"place_fail_frac":    "allocator.place_fail_frac",
}

// perLayer computes the traced run's per-layer metrics: per-round means of
// what each layer reports (over the rounds that ran that layer), the
// unbounded end-to-end metrics, and the tracer's own cost.
func (b *bench) perLayer() []named {
	rs := b.rounds
	m := func(keep func(roundRec) bool, f func(roundRec) float64) float64 { return mean(over(rs, keep, f)) }
	phases := func(f func(phaseRec) float64) func(roundRec) float64 {
		return func(r roundRec) float64 {
			t := 0.0
			for _, ph := range r.Phases {
				t += f(ph)
			}
			return t
		}
	}

	var warmHits, warmTries, lpIters int64
	var mipS float64
	var patched, builtPhases int
	var gaps []float64
	for _, r := range rs {
		warmHits += r.LPWarmHits
		warmTries += r.LPWarmHits + r.LPWarmMisses
		lpIters += r.LPIters
		for i, ph := range r.Phases {
			mipS += ph.MIPS
			builtPhases++
			if ph.Patched {
				patched++
			}
			if i == 0 && ph.GapPreemptions != nil {
				gaps = append(gaps, *ph.GapPreemptions)
			}
		}
	}
	itersPerS := 0.0
	if mipS > 0 {
		itersPerS = float64(lpIters) / mipS
	}

	// The tracer's cost: spans recorded times what one span costs, as a
	// share of the traced window.
	window := time.Duration(0)
	if len(b.tr.spans) > 0 {
		window = time.Duration(b.tr.spans[len(b.tr.spans)-1].End - b.tr.spans[0].Start)
	}
	overhead := 0.0
	if window > 0 {
		overhead = float64(time.Duration(len(b.tr.spans))*b.spanCost) / float64(window)
	}

	out := []named{
		{"lp.iterations", metric{m(solved, func(r roundRec) float64 { return float64(r.LPIters) }), "count/round"}},
		{"lp.dual_iterations", metric{m(solved, func(r roundRec) float64 { return float64(r.LPDualIters) }), "count/round"}},
		{"lp.root_iters", metric{m(solved, phases(func(p phaseRec) float64 { return float64(p.RootLPIters) })), "count/round"}},
		{"lp.refactorizations", metric{m(solved, func(r roundRec) float64 { return float64(r.LPRefactors) }), "count/round"}},
		{"lp.warm_hit_frac", metric{frac(int(warmHits), int(warmTries)), "frac"}},
		{"lp.iters_per_s", metric{itersPerS, "1/s"}},
		{"lp.singular_repairs", metric{m(solved, func(r roundRec) float64 { return float64(r.LPSingular) }), "count/round"}},

		{"mip.time_s", metric{m(solved, phases(func(p phaseRec) float64 { return p.MIPS })), "s"}},
		{"mip.nodes", metric{m(solved, phases(func(p phaseRec) float64 { return float64(p.Nodes) })), "count/round"}},
		{"mip.lp_solves", metric{m(solved, phases(func(p phaseRec) float64 { return float64(p.LPSolves) })), "count/round"}},
		{"mip.lp_limited", metric{m(solved, phases(func(p phaseRec) float64 { return float64(p.LPLimited) })), "count/round"}},
		{"mip.gap_preemptions", metric{mean(gaps), "preemptions"}},

		{"solver.ras_build_s", metric{m(solved, phases(func(p phaseRec) float64 { return p.RASBuildS })), "s"}},
		{"solver.solver_build_s", metric{m(solved, phases(func(p phaseRec) float64 { return p.SolverBuild })), "s"}},
		{"solver.initial_state_s", metric{m(solved, phases(func(p phaseRec) float64 { return p.InitStateS })), "s"}},
		{"solver.patch_hit_frac", metric{frac(patched, builtPhases), "frac"}},
		{"solver.fallback_rebuilds", metric{m(solved, func(r roundRec) float64 { return float64(r.FallbackRebuilds) }), "count/round"}},
		{"solver.assign_vars", metric{m(solved, func(r roundRec) float64 { return float64(r.Phases[0].AssignVars) }), "count/round"}},
		{"solver.evaluate_s", metric{m(evaluated, func(r roundRec) float64 { return r.EvaluateS }), "s"}},
		{"solver.objective_drift", metric{m(evaluated, func(r roundRec) float64 { return r.Drift }), "cost"}},

		{"broker.delta_servers", metric{m(nil, func(r roundRec) float64 { return float64(r.DeltaServers) }), "count/round"}},
		{"broker.snapshot_s", metric{m(nil, func(r roundRec) float64 { return r.SnapshotS }), "s"}},

		{"backend.solve_s", metric{m(evaluated, func(r roundRec) float64 { return r.BackendS }), "s"}},
		{"ras.round_overhead_s", metric{m(evaluated, func(r roundRec) float64 { return r.WallS - r.BackendS }), "s"}},

		{"pop.partitions", metric{m(isPOP, func(r roundRec) float64 { return float64(r.POPParts) }), "count/round"}},
		{"pop.sub_solve_s_max", metric{m(isPOP, func(r roundRec) float64 { return r.POPSubMaxS }), "s"}},
		{"pop.sub_solve_s_sum", metric{m(isPOP, func(r roundRec) float64 { return r.POPSubSumS }), "s"}},
		{"pop.repair_moves", metric{m(isPOP, func(r roundRec) float64 { return float64(r.POPRepair) }), "count/round"}},

		{"localsearch.solve_s", metric{m(isLocal, func(r roundRec) float64 { return r.BackendS }), "s"}},
		{"localsearch.steps", metric{m(isLocal, func(r roundRec) float64 { return float64(r.LSSteps) }), "count/round"}},
		{"localsearch.evaluated", metric{m(isLocal, func(r roundRec) float64 { return float64(r.LSEvaluated) }), "count/round"}},

		{"allocator.place_us", metric{mean(b.placeUS), "us"}},
		{"allocator.stop_us", metric{mean(b.stopUS), "us"}},
		{"allocator.evictions", metric{m(nil, func(r roundRec) float64 { return float64(r.Evictions) }), "count/round"}},

		{"mover.replacements", metric{m(nil, func(r roundRec) float64 { return float64(r.Replacements) }), "count/round"}},
		{"mover.replace_miss", metric{m(nil, func(r roundRec) float64 { return float64(r.ReplaceMiss) }), "count/round"}},
		{"mover.profile_switches", metric{m(nil, func(r roundRec) float64 { return float64(r.ProfileSwitches) }), "count/round"}},

		{"health.tick_s", metric{mean(b.tickS), "s"}},
		{"health.servers_down", metric{m(nil, func(r roundRec) float64 { return float64(r.ServersDown) }), "count/round"}},
		{"reservation.changes", metric{m(nil, func(r roundRec) float64 { return float64(r.ResChanges) }), "count/round"}},

		{"trace.spans", metric{float64(len(b.tr.spans)), "count"}},
		{"trace.overhead_frac", metric{overhead, "frac"}},
	}
	for _, e := range b.endToEnd() {
		if name, ok := layerE2E[e.name]; ok {
			out = append(out, named{name, e.metric})
		}
	}
	return out
}
