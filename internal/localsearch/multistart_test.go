package localsearch

import (
	"context"
	"testing"
	"time"

	"ras/internal/solver"
)

func TestMultiStartDeterministic(t *testing.T) {
	// Multi-start picks a winner by objective with lowest-index tie-breaks,
	// so the result must be identical run to run regardless of which
	// goroutine finishes first.
	in, _ := setup(t, 2, 3, 0.5)
	cfg := Config{MaxSteps: 300, Seed: 7, Starts: 4, TimeLimit: time.Minute}
	a, err := Solve(context.Background(), in, solver.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), in, solver.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.BestStart != b.BestStart || a.Steps != b.Steps {
		t.Fatalf("nondeterministic multi-start: obj %v/%v start %d/%d steps %d/%d",
			a.Objective, b.Objective, a.BestStart, b.BestStart, a.Steps, b.Steps)
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("targets diverge at server %d: %v vs %v", i, a.Targets[i], b.Targets[i])
		}
	}
	if a.Starts != 4 {
		t.Fatalf("Starts=%d, want 4", a.Starts)
	}
}

func TestMultiStartAtLeastAsGoodAsSingle(t *testing.T) {
	// Start 0 uses exactly the single-start seed, so the best-of-N winner
	// can never be worse than the single-start result.
	in, _ := setup(t, 5, 4, 0.6)
	single, err := Solve(context.Background(), in, solver.Config{}, Config{MaxSteps: 300, Seed: 11, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Solve(context.Background(), in, solver.Config{}, Config{MaxSteps: 300, Seed: 11, Starts: 4, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Objective > single.Objective {
		t.Fatalf("multi-start obj %v worse than single-start %v", multi.Objective, single.Objective)
	}
	if single.Starts != 1 || single.BestStart != 0 {
		t.Fatalf("single-start reported Starts=%d BestStart=%d", single.Starts, single.BestStart)
	}
}

func TestMultiStartStartZeroMatchesSingleStart(t *testing.T) {
	// When start 0 wins, its climb must be bit-identical to Starts=1.
	in, _ := setup(t, 2, 3, 0.5)
	single, err := Solve(context.Background(), in, solver.Config{}, Config{MaxSteps: 300, Seed: 7, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Solve(context.Background(), in, solver.Config{}, Config{MaxSteps: 300, Seed: 7, Starts: 3, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if multi.BestStart == 0 {
		if multi.Objective != single.Objective || multi.Steps != single.Steps {
			t.Fatalf("start 0 won but differs from single-start: obj %v/%v steps %d/%d",
				multi.Objective, single.Objective, multi.Steps, single.Steps)
		}
	} else if multi.Objective >= single.Objective {
		t.Fatalf("start %d won with obj %v, not better than start 0's %v",
			multi.BestStart, multi.Objective, single.Objective)
	}
}

func TestMultiStartCancellation(t *testing.T) {
	in, _ := setup(t, 3, 4, 0.6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every start must stop promptly
	res, err := Solve(ctx, in, solver.Config{}, Config{MaxSteps: 1 << 30, Seed: 1, Starts: 4, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("expected Cancelled result")
	}
	if res.Targets == nil {
		t.Fatalf("cancelled multi-start must still return an assignment")
	}
}
