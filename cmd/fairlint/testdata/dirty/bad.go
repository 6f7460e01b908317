// A fixture with one deliberate wallclock and one deliberate seedprov
// violation for CLI tests.
package dirty

import (
	"math/rand"
	"time"
)

func Stamp() time.Time {
	return time.Now()
}

// Fixed uses a hardcoded seed: the experiment cannot be re-seeded.
func Fixed() *rand.Rand {
	return rand.New(rand.NewSource(1234))
}
