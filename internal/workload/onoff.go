package workload

import (
	"fmt"

	"fairbench/internal/sim"
)

// OnOff is a two-state bursty arrival process (a Markov-modulated
// Poisson process): the source alternates between an ON state emitting
// at a multiple of the nominal rate and an OFF state emitting almost
// nothing, with exponentially distributed sojourn times. The long-run
// average rate equals the nominal rate, so throughput comparisons stay
// fair while burst-sensitivity (queue depths, SmartNIC punting,
// back-to-back tolerance) is exercised.
type OnOff struct {
	on        bool
	remaining float64 // seconds left in the current state
	init      bool
}

// The OnOff process's shape: the long-run fraction of time spent ON,
// the mean ON+OFF cycle length, and the OFF-state rate as a fraction of
// nominal (non-zero, or the arrival loop would starve).
const (
	onOffOnFraction  = 0.2
	onOffCycleSecs   = 2e-3
	onOffOffFraction = 0.01
)

// Name implements Arrival.
func (o *OnOff) Name() string {
	return fmt.Sprintf("onoff-%.0f%%-%.1fms", onOffOnFraction*100, onOffCycleSecs*1e3)
}

// NextGap implements Arrival. The ON-state rate is chosen so the
// long-run average equals pps:
//
//	onRate·onFrac + offRate·(1-onFrac) = pps
func (o *OnOff) NextGap(rng *sim.RNG, pps float64) float64 {
	offRate := pps * onOffOffFraction
	onRate := (pps - offRate*(1-onOffOnFraction)) / onOffOnFraction

	if !o.init {
		o.init = true
		o.on = rng.Float64() < onOffOnFraction
		o.remaining = o.sojourn(rng)
	}

	var gap float64
	for {
		rate := offRate
		if o.on {
			rate = onRate
		}
		step := rng.Exp(rate)
		if step <= o.remaining {
			o.remaining -= step
			gap += step
			return gap
		}
		// The state expires before the next arrival: advance time to
		// the state boundary and flip.
		gap += o.remaining
		o.on = !o.on
		o.remaining = o.sojourn(rng)
	}
}

// sojourn draws the next state's duration: mean onFrac·cycle for ON,
// (1-onFrac)·cycle for OFF.
func (o *OnOff) sojourn(rng *sim.RNG) float64 {
	mean := (1 - onOffOnFraction) * onOffCycleSecs
	if o.on {
		mean = onOffOnFraction * onOffCycleSecs
	}
	return rng.Exp(1 / mean)
}
