// Fixture for the determinism analyzer, loaded under "ras/internal/mip" so
// the wall-clock and environment scope applies. The global-rand half of the rule is
// module-wide and would fire under any import path.
package determinism

import (
	"math/rand"
	"os"
	"time"
)

func clockReads() time.Duration {
	t0 := time.Now()    // want `time\.Now reads the wall clock`
	d := time.Since(t0) // want `time\.Since reads the wall clock`
	return d
}

func envRead() bool {
	return os.Getenv("DEBUG") != "" // want `os\.Getenv reads the process environment`
}

func globalRand() int {
	return rand.Intn(4) // want `rand\.Intn draws from the global rand source`
}

func seededRand() int {
	rng := rand.New(rand.NewSource(7)) // seeded constructor and methods: fine
	return rng.Intn(4)
}

func allowedStandalone() time.Time {
	//raslint:allow determinism fixture exercising the standalone directive form
	return time.Now()
}

func allowedInline() time.Time {
	return time.Now() //raslint:allow determinism fixture exercising the end-of-line directive form
}
