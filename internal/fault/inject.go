package fault

import (
	"fmt"
	"math"
	"sort"

	"fairbench/internal/sim"
)

// Plant is the side of the deployment the injector actuates. Device
// faults are addressed by class; a deployment without the targeted
// device treats the call as a no-op (the fault describes the
// environment, and an absent device simply cannot fail).
type Plant interface {
	// SetDown marks the target failed (true) or recovered (false).
	SetDown(t Target, down bool)
	// SetDerate sets the target's remaining service-rate fraction;
	// 1 restores full rate.
	SetDerate(t Target, factor float64)
}

// maxWindows bounds schedule materialisation so a pathological spec
// (say mttf=1ns over a 1 s run) fails loudly instead of flooding the
// event queue.
const maxWindows = 100000

// Injector compiles a Spec into concrete fault windows over a run
// horizon and drives them as first-class simulation events. Device
// faults actuate the Plant; link faults and burst overload are exposed
// as state the ingress path queries per arrival. All randomness flows
// from the spec seed, so the same (seed, spec, horizon) produces the
// same schedule, event for event.
//
// Not safe for concurrent use; an injector belongs to one simulation.
type Injector struct {
	spec    Spec
	windows []Window
	active  []bool
	plant   Plant
	notify  func(w Window, start bool)

	linkRng     *sim.RNG
	lossProb    float64
	corruptProb float64
	dupProb     float64
	rateFactor  float64
}

// NewInjector validates the spec and builds an unarmed injector.
func NewInjector(spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	return &Injector{
		spec: spec,
		//fairlint:allow seedprov zero Spec.Seed selects the documented DefaultSeed fallback
		linkRng:    sim.NewRNG(seed).Derive("fault/link"),
		rateFactor: 1,
	}, nil
}

// OnTransition registers fn to observe every window start/end from
// inside the scheduled transition event — the hook the observability
// layer uses to record fault spans in causal trace order.
func (inj *Injector) OnTransition(fn func(w Window, start bool)) { inj.notify = fn }

// Windows returns the materialised schedule (empty before Arm), in
// deterministic order: by clause, then chronologically.
func (inj *Injector) Windows() []Window { return inj.windows }

// RateFactor returns the current offered-rate multiplier (>= 1; burst
// overload when > 1).
func (inj *Injector) RateFactor() float64 { return inj.rateFactor }

// DropArrival decides whether the link drops the arriving packet. The
// RNG advances only while a linkloss window is active, so fault-free
// stretches of a run stay identical to an unfaulted run.
func (inj *Injector) DropArrival() bool {
	return inj.lossProb > 0 && inj.linkRng.Float64() < inj.lossProb
}

// CorruptArrival decides whether the link corrupts the arriving frame;
// when it does, it returns the byte index to flip.
func (inj *Injector) CorruptArrival(frameLen int) (idx int, corrupt bool) {
	if inj.corruptProb <= 0 || frameLen <= 0 {
		return 0, false
	}
	if inj.linkRng.Float64() >= inj.corruptProb {
		return 0, false
	}
	return inj.linkRng.Intn(frameLen), true
}

// DupArrival decides whether the link delivers the arriving packet a
// second time. Call it after DropArrival and CorruptArrival: it draws
// last, and only while a linkdup window is active, so specs without
// linkdup clauses draw exactly the coins they always did.
func (inj *Injector) DupArrival() bool {
	return inj.dupProb > 0 && inj.linkRng.Float64() < inj.dupProb
}

// Arm materialises the fault schedule over [0, horizon) and registers
// every window transition as a simulation event on s. Call once, before
// the run starts.
func (inj *Injector) Arm(s *sim.Sim, horizon float64, plant Plant) error {
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return fmt.Errorf("fault: invalid horizon %v", horizon)
	}
	if plant == nil {
		return fmt.Errorf("fault: nil plant")
	}
	if err := inj.materialise(horizon); err != nil {
		return err
	}
	inj.plant = plant
	inj.active = make([]bool, len(inj.windows))
	for i, w := range inj.windows {
		i, w := i, w
		if err := s.At(sim.Time(w.Start), func() {
			inj.active[i] = true
			inj.recompute()
			if inj.notify != nil {
				inj.notify(w, true)
			}
		}); err != nil {
			return fmt.Errorf("fault: scheduling window start: %w", err)
		}
		if err := s.At(sim.Time(w.End), func() {
			inj.active[i] = false
			inj.recompute()
			if inj.notify != nil {
				inj.notify(w, false)
			}
		}); err != nil {
			return fmt.Errorf("fault: scheduling window end: %w", err)
		}
	}
	return nil
}

// materialise expands every clause into concrete windows over the
// horizon: scheduled clauses yield one clamped window; MTTF/MTTR
// clauses draw exponential failure/repair episodes from a per-clause
// stream derived from the spec seed.
func (inj *Injector) materialise(horizon float64) error {
	seed := inj.spec.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	//fairlint:allow seedprov zero Spec.Seed selects the documented DefaultSeed fallback
	root := sim.NewRNG(seed)
	inj.windows = inj.windows[:0]
	for ci, c := range inj.spec.Clauses {
		if c.MTTF > 0 {
			rng := root.Derive(fmt.Sprintf("fault/clause-%d", ci))
			t := 0.0
			for {
				t += rng.Exp(1 / c.MTTF)
				if t >= horizon {
					break
				}
				end := t + rng.Exp(1/c.MTTR)
				inj.addWindow(ci, c, t, end, horizon)
				if len(inj.windows) > maxWindows {
					return fmt.Errorf("%w: clause %d generates more than %d fault windows over %gs", ErrSpec, ci, maxWindows, horizon)
				}
				t = end
			}
			continue
		}
		end := c.At + c.For
		if c.For == 0 {
			end = horizon
		}
		inj.addWindow(ci, c, c.At, end, horizon)
	}
	sort.SliceStable(inj.windows, func(i, j int) bool {
		if inj.windows[i].Start != inj.windows[j].Start {
			return inj.windows[i].Start < inj.windows[j].Start
		}
		return inj.windows[i].Clause < inj.windows[j].Clause
	})
	return nil
}

func (inj *Injector) addWindow(ci int, c Clause, start, end, horizon float64) {
	if start >= horizon || end <= start {
		return
	}
	if end > horizon {
		end = horizon
	}
	inj.windows = append(inj.windows, Window{
		Clause: ci, Kind: c.Kind, Target: c.Target,
		Start: start, End: end, Severity: c.Severity,
	})
}

// recompute rebuilds the full fault state from the set of active
// windows. Recomputing from scratch (rather than incrementally
// applying/unapplying) keeps overlapping windows exact: outages nest by
// count, brownout factors multiply, link probabilities compose as
// complements, burst factors multiply.
func (inj *Injector) recompute() {
	down := make(map[Target]bool, len(allTargets))
	derate := make(map[Target]float64, len(allTargets))
	for _, t := range allTargets {
		derate[t] = 1
	}
	lossPass, corruptPass, dupPass := 1.0, 1.0, 1.0
	rate := 1.0
	for i, w := range inj.windows {
		if !inj.active[i] {
			continue
		}
		switch w.Kind {
		case Outage:
			down[w.Target] = true
		case Brownout:
			derate[w.Target] *= w.Severity
		case LinkLoss:
			lossPass *= 1 - w.Severity
		case LinkCorrupt:
			corruptPass *= 1 - w.Severity
		case LinkDup:
			dupPass *= 1 - w.Severity
		case Burst:
			rate *= w.Severity
		}
	}
	for _, t := range allTargets {
		inj.plant.SetDown(t, down[t])
		inj.plant.SetDerate(t, derate[t])
	}
	inj.lossProb = 1 - lossPass
	inj.corruptProb = 1 - corruptPass
	inj.dupProb = 1 - dupPass
	inj.rateFactor = rate
}
