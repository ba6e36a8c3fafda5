// Negative fixture: loaded under "ras/internal/experiments", which is outside
// the solve scope, so time.Now and os.Getenv are fine here — but the global
// rand source stays forbidden module-wide.
package determinismout

import (
	"math/rand"
	"os"
	"time"
)

func timing() time.Time {
	return time.Now() // outside the wall-clock scope: no finding
}

func verbose() bool {
	return os.Getenv("VERBOSE") != "" // outside the solve scope: no finding
}

func figure() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the global rand source`
}
