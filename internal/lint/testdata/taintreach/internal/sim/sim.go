// Corpus for the taintreach rule: this package dir mirrors the sim
// boundary. Every function here that transitively reaches the wall
// clock, the global RNG, or a goroutine spawn — even through the
// wrappers in internal/runner, which no per-package rule connects to
// this file — is a finding carrying the full call chain.
package sim

import "taintcorpus/internal/runner"

// Stamp launders time.Now through runner.Now: the wallclock rule is
// clean on both files, taintreach flags this one.
func Stamp() float64 { return runner.Now() }

// Jitter launders the global RNG the same way.
func Jitter() int { return runner.Draw() }

// Kick reaches a goroutine spawn two hops away.
func Kick() { runner.Spawn(func() {}) }

// Deep reaches the clock through a chain inside the boundary: only
// Stamp (the frontier) is reported, not this caller.
func Deep() float64 { return Stamp() + 1 }

// Step is deterministic end to end: no finding.
func Step(t float64) float64 { return runner.Scale(t) }

// Bridge is a suppressed positive: the allow names the rule and a
// reason, so it produces no finding (and the allow is "used").
//
//fairlint:allow taintreach corpus demo of a documented virtual-time bridge
func Bridge() float64 { return runner.Now() }

// Clock is how replayed code would read time.
type Clock interface{ Now() float64 }

// NewClock boxes the wall clock into its interface result, so its Now
// is callable by whoever receives the Clock.
func NewClock() Clock { return runner.WallClock{} }

type clocked struct{ c Clock }

// Hold boxes the wall clock into an interface-typed struct field.
func Hold() clocked { return clocked{c: runner.WallClock{}} }

// Swap boxes the wall clock by assigning it to an interface variable.
func Swap(c Clock) Clock {
	c = runner.WallClock{}
	return c
}
