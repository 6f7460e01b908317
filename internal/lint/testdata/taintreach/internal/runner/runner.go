// The laundering package: it sits OUTSIDE the sim boundary (and inside
// the wallclock allowlist), so per-package rules see nothing wrong here
// but the global rand.Int. Each wrapper hands nondeterminism to
// whoever calls it.
package runner

import (
	"math/rand"
	"time"
)

// Now launders the wall clock behind an innocent float.
func Now() float64 { return float64(time.Now().UnixNano()) }

// Draw launders the global math/rand generator.
func Draw() int { return rand.Int() }

// Spawn launders a goroutine spawn behind a callback.
func Spawn(fn func()) { go fn() }

// Scale is deterministic: calling it from the boundary is fine.
func Scale(t float64) float64 { return t * 2 }

// WallClock hides the wall clock behind a method: only code that boxes
// it into an interface hands that method to whoever holds the value.
type WallClock struct{}

// Now reads the wall clock.
func (WallClock) Now() float64 { return float64(time.Now().UnixNano()) }
