package localsearch

import (
	"context"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

func setup(t testing.TB, seed int64, nres int, fill float64) (solver.Input, []reservation.Reservation) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "ls", DCs: 2, MSBsPerDC: 3, RacksPerMSB: 5, ServersPerRack: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	per := float64(len(region.Servers)) * fill / float64(nres)
	for i := 0; i < nres; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: per, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	b := broker.New(region)
	return solver.Input{Region: region, Reservations: rsvs, States: b.Snapshot()}, rsvs
}

func capacityMet(in solver.Input, targets []reservation.ID, r *reservation.Reservation) (total, afterWorst float64) {
	perMSB := make([]float64, in.Region.NumMSBs)
	for i := range in.Region.Servers {
		if targets[i] != r.ID {
			continue
		}
		perMSB[in.Region.Servers[i].MSB]++
		total++
	}
	worst := 0.0
	for _, v := range perMSB {
		if v > worst {
			worst = v
		}
	}
	return total, total - worst
}

func TestSolveFulfillsCapacity(t *testing.T) {
	in, rsvs := setup(t, 1, 4, 0.6)
	res, err := Solve(context.Background(), in, solver.Config{}, Config{TimeLimit: 3 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rsvs {
		_, after := capacityMet(in, res.Targets, &rsvs[i])
		if after < rsvs[i].RRUs-1e-6 {
			t.Errorf("reservation %d: %.1f surviving capacity vs %.1f requested", i, after, rsvs[i].RRUs)
		}
	}
	if res.Steps == 0 {
		t.Fatal("search made no moves from an empty assignment")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	in, _ := setup(t, 2, 3, 0.5)
	cfg := Config{MaxSteps: 500, Seed: 7, TimeLimit: time.Minute}
	a, err := Solve(context.Background(), in, solver.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), in, solver.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Steps != b.Steps {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Objective, a.Steps, b.Objective, b.Steps)
	}
}

func TestRespectsEligibilityAndAvailability(t *testing.T) {
	in, rsvs := setup(t, 3, 3, 0.4)
	for i := 0; i < len(in.States); i += 4 {
		in.States[i].Unavail = broker.RandomFailure
	}
	res, err := Solve(context.Background(), in, solver.Config{}, Config{TimeLimit: 2 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.States {
		if in.States[i].Unavail == broker.RandomFailure && res.Targets[i] != reservation.Unassigned {
			t.Fatalf("failed server %d assigned", i)
		}
		tgt := res.Targets[i]
		if tgt >= 0 {
			ty := in.Region.Servers[i].Type
			v := hardware.RRU(in.Region.Catalog.Type(ty), rsvs[tgt].Class)
			if v <= 0 {
				t.Fatalf("ineligible server %d assigned to class %v", i, rsvs[tgt].Class)
			}
		}
	}
}

func TestStabilityFromCurrentAssignment(t *testing.T) {
	// Solve once, feed the result back as current: a second search must not
	// preempt in-use servers.
	in, _ := setup(t, 4, 3, 0.5)
	first, err := Solve(context.Background(), in, solver.Config{}, Config{TimeLimit: 2 * time.Second, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.States {
		in.States[i].Current = first.Targets[i]
		if first.Targets[i] >= 0 {
			in.States[i].Containers = 2
		}
	}
	second, err := Solve(context.Background(), in, solver.Config{}, Config{TimeLimit: time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if second.Moves.InUse > 2 {
		t.Fatalf("re-solve preempted %d in-use servers", second.Moves.InUse)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Solve(context.Background(), solver.Input{}, solver.Config{}, Config{}); err == nil {
		t.Fatal("nil region must error")
	}
}

// TestQualityVsMIP compares the two ReBalancer backends on the same
// instance: the MIP backend should reach an equal or better objective,
// while local search must at least fulfill capacity (its niche is speed,
// not optimality — §6).
func TestQualityVsMIP(t *testing.T) {
	if testing.Short() {
		t.Skip("backend comparison in -short mode")
	}
	in, rsvs := setup(t, 6, 4, 0.6)
	weights := solver.Config{
		Phase1TimeLimit: 8 * time.Second, Phase2TimeLimit: time.Second,
		MaxNodes: 100, SharedBufferFraction: -1,
	}
	ls, err := Solve(context.Background(), in, weights, Config{TimeLimit: 2 * time.Second, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	mip, err := solver.Solve(context.Background(), in, weights)
	if err != nil {
		t.Fatal(err)
	}
	// Both must fulfill every reservation's guarantee.
	for i := range rsvs {
		if _, after := capacityMet(in, ls.Targets, &rsvs[i]); after < rsvs[i].RRUs-1e-6 {
			t.Errorf("local search misses capacity for reservation %d", i)
		}
		if _, after := capacityMet(in, mip.Targets, &rsvs[i]); after < rsvs[i].RRUs-1e-6 {
			t.Errorf("MIP misses capacity for reservation %d", i)
		}
	}
	// Compare spread quality: fleet max-MSB concentration.
	worstShare := func(targets []reservation.ID) float64 {
		worst := 0.0
		for i := range rsvs {
			total, after := capacityMet(in, targets, &rsvs[i])
			if total == 0 {
				continue
			}
			if share := (total - after) / total; share > worst {
				worst = share
			}
		}
		return worst
	}
	lsShare, mipShare := worstShare(ls.Targets), worstShare(mip.Targets)
	t.Logf("max-MSB share: local search %.3f vs MIP %.3f", lsShare, mipShare)
	if mipShare > lsShare*1.5+0.05 {
		t.Errorf("MIP spread (%.3f) much worse than local search (%.3f)?", mipShare, lsShare)
	}
}
