package workload

import (
	"math"
	"testing"

	"fairbench/internal/sim"
)

func TestOnOffLongRunRate(t *testing.T) {
	// Property: the long-run average arrival rate equals the nominal
	// rate despite burstiness.
	o := &OnOff{}
	rng := sim.NewRNG(9)
	const pps = 1e6
	const n = 300000
	var total float64
	for i := 0; i < n; i++ {
		g := o.NextGap(rng, pps)
		if g < 0 {
			t.Fatal("negative gap")
		}
		total += g
	}
	rate := n / total
	if math.Abs(rate-pps)/pps > 0.05 {
		t.Errorf("long-run rate = %v, want ≈%v", rate, pps)
	}
}

func TestOnOffIsBurstier(t *testing.T) {
	// The squared coefficient of variation of inter-arrival gaps must
	// exceed Poisson's (which is 1).
	gaps := func(a Arrival, seed uint64) (mean, cv2 float64) {
		rng := sim.NewRNG(seed)
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			g := a.NextGap(rng, 1e6)
			sum += g
			sumSq += g * g
		}
		mean = sum / n
		variance := sumSq/n - mean*mean
		return mean, variance / (mean * mean)
	}
	_, poissonCV2 := gaps(Poisson{}, 5)
	_, onoffCV2 := gaps(&OnOff{}, 5)
	if onoffCV2 < poissonCV2*2 {
		t.Errorf("on/off CV² = %v should far exceed Poisson's %v", onoffCV2, poissonCV2)
	}
}

func TestOnOffDefaultsAndName(t *testing.T) {
	o := &OnOff{}
	if got := o.Name(); got != "onoff-20%-2.0ms" {
		t.Errorf("Name = %q", got)
	}
}

func TestOnOffDeterministic(t *testing.T) {
	mk := func() []float64 {
		o := &OnOff{}
		rng := sim.NewRNG(77)
		var out []float64
		for i := 0; i < 1000; i++ {
			out = append(out, o.NextGap(rng, 1e6))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("on/off arrivals must be deterministic per seed")
		}
	}
}
