package testbed

import (
	"fmt"

	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Scenario runs: internet-scale adversarial traffic against bounded
// state planes. RunScenario drives a workload.ScenarioGen through the
// deployment with the scenario's diurnal/flash-crowd rate curve applied
// to the offered load, per-class outcomes metered for the
// goodput-vs-throughput split, and every registered state table sampled
// over simulated time.

// stateSampleWindows is the number of occupancy samples taken across a
// scenario run — enough to draw a pressure curve, few enough to stay
// out of the hot path.
const stateSampleWindows = 48

// MeterState attaches a state-pressure meter for the next run. Probes
// should be registered on the meter before the run; a nil meter (the
// default) keeps the hot path class-blind.
func (d *Deployment) MeterState(sm *measure.StateMeter) { d.state = sm }

// armStateSampler schedules periodic table sampling up to the horizon.
func (d *Deployment) armStateSampler(horizon sim.Time) error {
	every := horizon.Seconds() / stateSampleWindows
	var tick func(at sim.Time) error
	tick = func(at sim.Time) error {
		if at > horizon {
			return nil
		}
		return d.s.At(at, func() {
			d.state.Sample(at.Seconds())
			_ = tick(at + sim.Time(every))
		})
	}
	return tick(sim.Time(every))
}

// RunScenario offers a scenario's traffic at offeredPps (scaled by the
// scenario's rate curve) for the given simulated duration. When sm is
// non-nil it receives per-class outcomes and periodic samples of its
// registered probes; summarize it with sm.Summarize(durationSeconds)
// after the run. Scenario frames alias the generator's templates; the
// deployment parses them synchronously, and MutatesFrames configs get
// private copies, exactly like Run.
func (d *Deployment) RunScenario(sg *workload.ScenarioGen, arrival workload.Arrival, offeredPps, durationSeconds float64, sm *measure.StateMeter) (Result, error) {
	if offeredPps <= 0 || durationSeconds <= 0 {
		return Result{}, fmt.Errorf("testbed: invalid scenario run params pps=%v duration=%v", offeredPps, durationSeconds)
	}
	d.state = sm
	hooks := &runHooks{
		rateFactor: func() float64 { return sg.RateFactor(d.s.Now().Seconds()) },
	}
	if sm != nil {
		hooks.prep = func(horizon sim.Time) error { return d.armStateSampler(horizon) }
	}
	return d.runInjected(arrival, offeredPps, durationSeconds, sg.ArrivalRNG(),
		func() error {
			pk, class, err := sg.NextAt(d.s.Now().Seconds())
			if err != nil {
				return err
			}
			if d.cfg.MutatesFrames {
				pk.Frame = append([]byte(nil), pk.Frame...)
			}
			d.tput.Offer(len(pk.Frame))
			d.state.Offer(string(class), len(pk.Frame))
			d.dispatch(pk)
			return nil
		}, hooks)
}

// StatePressureHost builds an n-core conntrack firewall over the
// canonical rules with explicit degradation semantics, and returns the
// probes exposing its connection table to state metering. ct.MaxEntries
// is the per-core bound (each core runs a shared-nothing instance);
// ct.Seed is decorrelated per core.
func StatePressureHost(name string, cores int, ct nf.ConntrackConfig) (*Deployment, []measure.StateProbe, error) {
	rules := FirewallRules(DefaultFillerRules)
	var cts []*nf.Conntrack
	d, err := New(Config{
		Name:         name,
		Cores:        cores,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		NICWatts:     ScenarioNICWatts,
		NewNF: func(core int) (nf.Func, error) {
			cfg := ct
			cfg.Seed = ct.Seed + uint64(core)
			c := nf.NewConntrackWith(fmt.Sprintf("ct-core%d", core), nf.NewLinearMatcher(rules), cfg)
			cts = append(cts, c)
			return c, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	probes := []measure.StateProbe{conntrackProbe(cts)}
	return d, probes, nil
}

// StatePressureSmartNIC builds the offload variant: one host core
// running the bounded conntrack firewall fronted by a SmartNIC whose
// offload table is the state plane under test. Probes cover both the
// offload table and the host connection table.
func StatePressureSmartNIC(name string, snic hw.SmartNICConfig, ct nf.ConntrackConfig) (*Deployment, []measure.StateProbe, error) {
	rules := FirewallRules(DefaultFillerRules)
	var cts []*nf.Conntrack
	d, err := New(Config{
		Name:         name,
		Cores:        1,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		SmartNIC:     &snic,
		NewNF: func(core int) (nf.Func, error) {
			cfg := ct
			cfg.Seed = ct.Seed + uint64(core)
			c := nf.NewConntrackWith(fmt.Sprintf("ct-core%d", core), nf.NewLinearMatcher(rules), cfg)
			cts = append(cts, c)
			return c, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	sn := d.SmartNIC()
	probes := []measure.StateProbe{
		{
			Name:      "offload-table",
			Capacity:  sn.Config().FlowTableSize,
			Occupancy: sn.FlowTableLen,
			Evictions: sn.Evicted,
		},
		conntrackProbe(cts),
	}
	return d, probes, nil
}

// conntrackProbe aggregates shared-nothing per-core connection tables
// into one probe (capacity and occupancy sum across cores).
func conntrackProbe(cts []*nf.Conntrack) measure.StateProbe {
	capacity := 0
	for _, c := range cts {
		capacity += c.MaxEntries()
	}
	return measure.StateProbe{
		Name:     "conntrack",
		Capacity: capacity,
		Occupancy: func() int {
			n := 0
			for _, c := range cts {
				n += c.Entries()
			}
			return n
		},
		Evictions: func() uint64 {
			var n uint64
			for _, c := range cts {
				n += c.Evicted()
			}
			return n
		},
	}
}

// ConntrackStatsOf sums the per-core connection-table statistics of a
// deployment built by the StatePressure constructors — the attributed
// overflow/eviction accounting the reports surface.
func ConntrackStatsOf(d *Deployment) nf.ConntrackStats {
	var out nf.ConntrackStats
	for _, f := range d.nfs {
		c, ok := f.(*nf.Conntrack)
		if !ok {
			continue
		}
		st := c.Stats()
		out.NewFlows += st.NewFlows
		out.FastPath += st.FastPath
		out.Dropped += st.Dropped
		out.OverflowDrops += st.OverflowDrops
		out.Evicted += st.Evicted
		out.EvictedEstablished += st.EvictedEstablished
		out.SYNCookiesSent += st.SYNCookiesSent
		out.CookieBypassed += st.CookieBypassed
		out.TableFull += st.TableFull
		out.Entries += st.Entries
		out.MaxEntries += st.MaxEntries
	}
	return out
}
