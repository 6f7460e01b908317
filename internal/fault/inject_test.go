package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fairbench/internal/sim"
)

// fakePlant records actuations for assertions.
type fakePlant struct {
	down   map[Target]bool
	derate map[Target]float64
	log    []string
}

func newFakePlant() *fakePlant {
	return &fakePlant{down: map[Target]bool{}, derate: map[Target]float64{}}
}

func (p *fakePlant) SetDown(t Target, down bool) {
	if p.down[t] != down {
		p.log = append(p.log, fmt.Sprintf("%s down=%v", t, down))
	}
	p.down[t] = down
}

func (p *fakePlant) SetDerate(t Target, factor float64) {
	if f, ok := p.derate[t]; !ok || f != factor {
		if factor != 1 || ok {
			p.log = append(p.log, fmt.Sprintf("%s derate=%g", t, factor))
		}
	}
	p.derate[t] = factor
}

func mustSpec(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestInjectorScheduledOutage(t *testing.T) {
	spec := mustSpec(t, "outage:dev=smartnic,at=2ms,for=3ms")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	p := newFakePlant()
	if err := inj.Arm(s, 0.01, p); err != nil {
		t.Fatal(err)
	}
	ws := inj.Windows()
	if len(ws) != 1 || ws[0].Start != 0.002 || ws[0].End != 0.005 {
		t.Fatalf("windows = %+v, want one [2ms,5ms)", ws)
	}
	// Probe device state between transitions.
	var states []bool
	for _, at := range []float64{0.001, 0.003, 0.006} {
		at := at
		if err := s.At(sim.Time(at), func() { states = append(states, p.down[TargetSmartNIC]) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0.01)
	want := []bool{false, true, false}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("down states at 1/3/6 ms = %v, want %v", states, want)
	}
}

func TestInjectorOverlappingBrownoutsMultiply(t *testing.T) {
	spec := mustSpec(t, "brownout:dev=cores,at=1ms,for=4ms,factor=0.5;brownout:dev=cores,at=2ms,for=1ms,factor=0.5")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	p := newFakePlant()
	if err := inj.Arm(s, 0.01, p); err != nil {
		t.Fatal(err)
	}
	var factors []float64
	for _, at := range []float64{0.0015, 0.0025, 0.0035, 0.006} {
		at := at
		if err := s.At(sim.Time(at), func() { factors = append(factors, p.derate[TargetCores]) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0.01)
	want := []float64{0.5, 0.25, 0.5, 1}
	if !reflect.DeepEqual(factors, want) {
		t.Errorf("derate factors = %v, want %v (overlap multiplies, recovery restores)", factors, want)
	}
}

func TestInjectorMTTFScheduleDeterministic(t *testing.T) {
	spec := mustSpec(t, "outage:dev=fpga,mttf=5ms,mttr=1ms;seed:21")
	mk := func() []Window {
		inj, err := NewInjector(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Arm(sim.New(), 0.1, newFakePlant()); err != nil {
			t.Fatal(err)
		}
		return inj.Windows()
	}
	a, b := mk(), mk()
	if len(a) == 0 {
		t.Fatal("MTTF=5ms over 100ms produced no fault windows")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	// A different seed must (overwhelmingly) move the windows.
	other := spec
	other.Seed = 22
	inj, err := NewInjector(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(sim.New(), 0.1, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, inj.Windows()) {
		t.Error("different seeds produced identical stochastic schedules")
	}
}

func TestInjectorPathologicalSpecBounded(t *testing.T) {
	inj, err := NewInjector(Spec{Clauses: []Clause{
		{Kind: Outage, Target: TargetCores, MTTF: 1e-9, MTTR: 1e-9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = inj.Arm(sim.New(), 1.0, newFakePlant())
	if err == nil {
		t.Fatal("nanosecond MTTF over a 1s horizon should exceed the window cap")
	}
	if !errors.Is(err, ErrSpec) {
		t.Errorf("window-cap error %v does not wrap ErrSpec", err)
	}
}

func TestInjectorLinkStateOnlyDuringWindows(t *testing.T) {
	spec := mustSpec(t, "linkloss:prob=1,at=2ms,for=2ms")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	if err := inj.Arm(s, 0.01, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	drops := map[float64]bool{}
	for _, at := range []float64{0.001, 0.003, 0.005} {
		at := at
		if err := s.At(sim.Time(at), func() { drops[at] = inj.DropArrival() }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0.01)
	if drops[0.001] || drops[0.005] {
		t.Errorf("dropped outside the loss window: %v", drops)
	}
	if !drops[0.003] {
		t.Error("prob=1 loss window did not drop the in-window arrival")
	}
}

// TestInjectorLinkDup: duplication is active only inside its windows,
// overlapping windows compose as complements, and a spec without
// linkdup clauses draws no dup coins, so its loss and corruption draws
// are unchanged by the ingress path asking.
func TestInjectorLinkDup(t *testing.T) {
	inj, err := NewInjector(mustSpec(t, "linkdup:prob=1,at=2ms,for=2ms;linkdup:prob=0.5,at=3ms,for=3ms"))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	if err := inj.Arm(s, 0.01, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	dups := map[float64]bool{}
	probs := map[float64]float64{}
	for _, at := range []float64{0.001, 0.0025, 0.0035, 0.007} {
		at := at
		if err := s.At(sim.Time(at), func() {
			probs[at] = inj.dupProb
			dups[at] = inj.DupArrival()
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0.01)
	if dups[0.001] || dups[0.007] {
		t.Errorf("duplicated outside the dup windows: %v", dups)
	}
	if !dups[0.0025] || !dups[0.0035] {
		t.Errorf("prob=1 dup window did not duplicate: %v", dups)
	}
	if probs[0.0035] != 1 || probs[0.0025] != 1 {
		t.Errorf("dup probabilities = %v, want 1 while the prob=1 window is active", probs)
	}

	draws := func(askDup bool) []int {
		inj, err := NewInjector(mustSpec(t, "linkloss:prob=0.3;linkcorrupt:prob=0.3;seed:5"))
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New()
		if err := inj.Arm(s, 1, newFakePlant()); err != nil {
			t.Fatal(err)
		}
		var out []int
		if err := s.At(0.5, func() {
			for i := 0; i < 200; i++ {
				idx, corrupt := -1, false
				if !inj.DropArrival() {
					idx, corrupt = inj.CorruptArrival(64)
				}
				if !corrupt {
					idx = -1
				}
				if askDup && inj.DupArrival() {
					t.Fatal("duplicated without a linkdup clause")
				}
				out = append(out, idx)
			}
		}); err != nil {
			t.Fatal(err)
		}
		s.Run(1)
		return out
	}
	if !reflect.DeepEqual(draws(false), draws(true)) {
		t.Error("asking DupArrival changed the loss/corruption draws of a spec without linkdup")
	}
}

func TestInjectorBurstRateFactor(t *testing.T) {
	spec := mustSpec(t, "burst:factor=3,at=1ms,for=1ms")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	if err := inj.Arm(s, 0.01, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	var factors []float64
	for _, at := range []float64{0.0005, 0.0015, 0.0025} {
		at := at
		if err := s.At(sim.Time(at), func() { factors = append(factors, inj.RateFactor()) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0.01)
	want := []float64{1, 3, 1}
	if !reflect.DeepEqual(factors, want) {
		t.Errorf("rate factors = %v, want %v", factors, want)
	}
}

func TestInjectorUntilHorizonWindow(t *testing.T) {
	// for=0 (or omitted) means the fault lasts until the horizon.
	spec := mustSpec(t, "outage:dev=switch,at=4ms")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(sim.New(), 0.01, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	ws := inj.Windows()
	if len(ws) != 1 || ws[0].Start != 0.004 || ws[0].End != 0.01 {
		t.Fatalf("windows = %+v, want one [4ms, horizon)", ws)
	}
}

func TestInjectorTransitionNotifications(t *testing.T) {
	spec := mustSpec(t, "outage:dev=fpga,at=1ms,for=1ms;brownout:dev=cores,at=2ms,for=1ms,factor=0.5")
	inj, err := NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	var seen []string
	inj.OnTransition(func(w Window, start bool) {
		seen = append(seen, fmt.Sprintf("%s/%s start=%v at=%v", w.Kind, w.Target, start, s.Now().Seconds()))
	})
	if err := inj.Arm(s, 0.01, newFakePlant()); err != nil {
		t.Fatal(err)
	}
	s.Run(0.01)
	want := []string{
		"outage/fpga start=true at=0.001",
		"outage/fpga start=false at=0.002",
		"brownout/cores start=true at=0.002",
		"brownout/cores start=false at=0.003",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("transitions = %v, want %v", seen, want)
	}
}

func TestInjectorArmValidation(t *testing.T) {
	inj, err := NewInjector(mustSpec(t, "linkloss:prob=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(sim.New(), 0, newFakePlant()); err == nil {
		t.Error("zero horizon accepted")
	}
	if err := inj.Arm(sim.New(), 0.01, nil); err == nil {
		t.Error("nil plant accepted")
	}
}
