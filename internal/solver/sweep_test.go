package solver

import (
	"flag"
	"testing"
)

var sweepSeeds = flag.Int("sweep-seeds", 0, "number of seeds TestInvariantSweep checks (0 skips it)")

// TestInvariantSweep runs the randomized invariant check over a wide seed
// range. It is gated behind -sweep-seeds because the full sweep takes
// minutes; CI runs the fixed 1..15 range in TestQuickSolveInvariants. Run
// it with: go test ./internal/solver -run TestInvariantSweep -sweep-seeds=N
func TestInvariantSweep(t *testing.T) {
	if *sweepSeeds <= 0 {
		t.Skip("pass -sweep-seeds=N to sweep N seeds")
	}
	failures := 0
	for seed := int64(1); seed <= int64(*sweepSeeds); seed++ {
		if !invariantCheck(t, seed) {
			t.Errorf("invariants violated at seed %d", seed)
			failures++
			if failures > 5 {
				t.Fatal("too many failures; stopping sweep")
			}
		}
	}
}
