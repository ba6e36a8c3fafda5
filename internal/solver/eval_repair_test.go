package solver

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ras/internal/broker"
	"ras/internal/mip"
	"ras/internal/reservation"
)

// TestEvaluateMatchesSolverObjective pins the contract every backend's
// objective rests on: Evaluate is an exact replica of the phase-1 MIP
// objective. Evaluating the MIP's own targets reproduces the MIP's own
// reported objective, and at random integral assignments — with in-use and
// failed servers, wear, a shared buffer, RRU-valued, single-DC and
// DC-affinity reservations — Evaluate equals the phase-1 model's objective
// with the assignment pinned.
func TestEvaluateMatchesSolverObjective(t *testing.T) {
	region := testRegion(t, 2, 3, 4, 6, 21)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: 0, RRUs: 40, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: 1, RRUs: 25, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 2, Name: "store", Class: 3, RRUs: 30, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()
	res, err := Solve(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(in, cfg, res.Targets)
	if diff := math.Abs(ev.Objective - res.Phase1.Objective); diff > 1e-6 {
		t.Fatalf("Evaluate = %v, phase-1 objective = %v (diff %g): the functional drifted from the MIP",
			ev.Objective, res.Phase1.Objective, diff)
	}
	// The breakdown must reassemble into the total it claims to break down.
	sum := ev.Stability + ev.Spread + ev.Buffer + ev.CapSlack + ev.AffSlack + ev.Wear
	if diff := math.Abs(sum - ev.Objective); diff > 1e-9 {
		t.Fatalf("breakdown sums to %v, Objective says %v", sum, ev.Objective)
	}

	for seed := int64(1); seed <= 12; seed++ {
		in, cfg := randomEvalInput(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 3; trial++ {
			targets := randomTargets(rng, in)
			got := Evaluate(in, cfg, targets).Objective
			want := modelObjectiveAt(t, in, cfg, targets)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("seed %d trial %d: Evaluate = %v, phase-1 model at the same assignment = %v", seed, trial, got, want)
			}
		}
	}
}

// randomEvalInput builds a small region whose objective exercises every
// phase-1 term: servers in use, failed, under maintenance and worn; a mix of
// count-based and RRU-valued reservations, one pinned to a DC and one with
// DC affinity; and the shared buffer switched on. Every third seed loses a
// whole DC, which affinity must then leave unpriced.
func randomEvalInput(t *testing.T, seed int64) (Input, Config) {
	t.Helper()
	region := testRegion(t, 3, 2, 3, 4, 40+seed)
	rng := rand.New(rand.NewSource(seed))
	n := float64(len(region.Servers))
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: 0, RRUs: 0.2 * n, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: 1, RRUs: 0.15 * n, Policy: reservation.DefaultPolicy()},
		{ID: 2, Name: "ml", Class: 2, RRUs: 0.1 * n, CountBased: true, Policy: reservation.Policy{SingleDC: int(seed % 2)}},
		{ID: 3, Name: "store", Class: 3, RRUs: 0.15 * n, CountBased: true, Policy: reservation.Policy{
			SingleDC: -1, SpreadMSB: 0.3, DCAffinity: map[int]float64{0: 0.5, 1: 0.2, 2: 0.3},
		}},
	}
	in := freshInput(region, rsvs)
	for i := range in.States {
		st := &in.States[i]
		st.Current = reservation.ID(rng.Intn(len(rsvs)+2) - 1) // includes Unassigned
		if rng.Intn(3) == 0 {
			st.Containers = 1 + rng.Intn(3)
		}
		switch rng.Intn(10) {
		case 0:
			st.Unavail = broker.RandomFailure
		case 1:
			st.Unavail = broker.PlannedMaintenance
		}
		st.FlashWear = rng.Float64()
		if seed%3 == 0 && region.Servers[i].DC == 2 {
			st.Unavail = broker.RandomFailure
		}
	}
	cfg := fastCfg()
	cfg.SharedBufferFraction = 0.05
	cfg.WearPenalty = 2
	return in, cfg
}

// randomTargets binds every server to a uniformly drawn reservation, the
// shared buffer or the free pool — eligible or not.
func randomTargets(rng *rand.Rand, in Input) []reservation.ID {
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		switch k := rng.Intn(len(in.Reservations) + 2); k {
		case 0:
			targets[i] = reservation.Unassigned
		case 1:
			targets[i] = reservation.SharedBuffer
		default:
			targets[i] = in.Reservations[k-2].ID
		}
	}
	return targets
}

// modelObjectiveAt builds the phase-1 model, pins every assignment count
// variable to the counts targets imply (a server counts toward the first
// spec of its target that the model values it under, as realize and the
// initial state assume), lifts the softened rows' slack caps so any
// assignment is feasible, and solves for the remaining continuous
// variables.
func modelObjectiveAt(t *testing.T, in Input, cfg Config, targets []reservation.ID) float64 {
	t.Helper()
	cfg = cfg.withDefaults(in.Region)
	specs := buildSpecs(in, cfg)
	var stats PhaseStats
	bp := buildPhase(in, cfg, specs, usableServers(in), nil, false, &stats)
	counts := make([][]float64, len(bp.groups))
	for gi := range counts {
		counts[gi] = make([]float64, len(specs))
	}
	for _, id := range usableServers(in) {
		gi := bp.serverGroup[id]
		for _, si := range bp.specByID[targets[id]] {
			if bp.vval[gi][si] > 0 {
				counts[gi][si]++
				break
			}
		}
	}
	for gi := range bp.nVar {
		for si, v := range bp.nVar[gi] {
			if v >= 0 {
				bp.m.SetVarBounds(v, counts[gi][si], counts[gi][si])
			}
		}
	}
	for _, v := range append(append([]mip.Var(nil), bp.capSlackVars...), bp.affSlackVars...) {
		bp.m.SetVarBounds(v, 0, math.Inf(1))
	}
	r := bp.m.Solve(context.Background(), mip.Options{MaxNodes: 10})
	if r.Status != mip.Optimal {
		t.Fatalf("pinned phase-1 model: status %v", r.Status)
	}
	return r.Objective
}

// TestEvaluateReportsUnserviceable checks the §5.3 operability path:
// demand nothing in the region can serve shows up in Eval.Unserviceable and —
// matching the MIP's constraint-dropping behaviour — stays out of Objective.
func TestEvaluateReportsUnserviceable(t *testing.T) {
	region := testRegion(t, 2, 2, 3, 4, 22)
	impossible := reservation.Reservation{
		ID: 0, Name: "ghost", Class: 0, RRUs: 12, CountBased: true,
		Policy: reservation.Policy{SingleDC: 99},
	}
	in := freshInput(region, []reservation.Reservation{impossible})
	targets := make([]reservation.ID, len(region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	ev := Evaluate(in, fastCfg(), targets)
	if ev.Unserviceable != impossible.RRUs {
		t.Fatalf("Unserviceable = %v, want %v", ev.Unserviceable, impossible.RRUs)
	}
	if ev.Objective != 0 {
		t.Fatalf("unserviceable demand leaked into Objective: %v", ev.Objective)
	}
}

// concentratedTargets assigns the reservation's whole count-based demand to
// the lowest server IDs — all inside the first MSBs — leaving everything else
// free: maximal spread violation plus a starved embedded buffer, the shape a
// naive cross-partition merge can produce.
func concentratedTargets(in Input, r *reservation.Reservation) []reservation.ID {
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	n := int(r.RRUs)
	for i := 0; i < n && i < len(targets); i++ {
		targets[i] = r.ID
	}
	return targets
}

// TestRepairImprovesConcentratedAssignment drives RepairTargets over a
// deliberately bad merged assignment and checks it strictly improves the
// region-wide objective while staying deterministic: identical inputs give
// identical repaired targets and stats on every run.
func TestRepairImprovesConcentratedAssignment(t *testing.T) {
	region := testRegion(t, 2, 3, 4, 6, 23)
	r := reservation.Reservation{
		ID: 0, Name: "svc", Class: 4, RRUs: 36, CountBased: true,
		Policy: reservation.DefaultPolicy(),
	}
	in := freshInput(region, []reservation.Reservation{r})
	cfg := fastCfg()
	before := concentratedTargets(in, &r)
	costBefore := Evaluate(in, cfg, before).Objective

	type run struct {
		stats   RepairStats
		targets []reservation.ID
		cost    float64
	}
	var runs []run
	for i := 0; i < 3; i++ {
		targets := append([]reservation.ID(nil), before...)
		stats := RepairTargets(in, cfg, targets)
		runs = append(runs, run{stats, targets, Evaluate(in, cfg, targets).Objective})
	}
	if runs[0].stats.Moves() == 0 {
		t.Fatal("repair made no moves on a maximally concentrated assignment")
	}
	if runs[0].cost >= costBefore {
		t.Fatalf("repair did not improve the objective: %v → %v", costBefore, runs[0].cost)
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].stats != runs[0].stats || runs[i].cost != runs[0].cost ||
			!reflect.DeepEqual(runs[i].targets, runs[0].targets) {
			t.Fatalf("repair not deterministic: run %d %+v cost %v vs run 0 %+v cost %v",
				i, runs[i].stats, runs[i].cost, runs[0].stats, runs[0].cost)
		}
	}
	// Capacity must be preserved or improved, never repaired away.
	if got := rruOf(region, runs[0].targets, &r); got < r.RRUs {
		t.Fatalf("repair left reservation under-served: %v of %v RRUs", got, r.RRUs)
	}
}

// TestRepairLeavesSolverOutputAlone checks the fixed point: the solver's own
// phase-1-optimal assignment gives repair nothing profitable to do, so the
// objective never regresses (a few cost-neutral envelope-levelling moves are
// allowed).
func TestRepairLeavesSolverOutputAlone(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 6, 24)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "a", Class: 0, RRUs: 30, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "b", Class: 2, RRUs: 20, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()
	res, err := Solve(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := append([]reservation.ID(nil), res.Targets...)
	before := Evaluate(in, cfg, targets).Objective
	RepairTargets(in, cfg, targets)
	after := Evaluate(in, cfg, targets).Objective
	if after > before+1e-9 {
		t.Fatalf("repair regressed a solver-optimal assignment: %v → %v", before, after)
	}
}
