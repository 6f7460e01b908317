package fairbench

import (
	"fmt"

	"fairbench/internal/core"
	"fairbench/internal/measure"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/report"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// State pressure: fairness under overload. The fault sweep asks
// whether a verdict survives component failure; this experiment asks
// whether it survives *state exhaustion* — internet-scale adversarial
// traffic (SYN floods, flash crowds, flow churn) pressing on bounded
// conntrack and offload tables. The §4.2 pair is re-run with explicit
// degradation semantics (eviction policies, SYN cookies, offload-table
// punting), per-class goodput-vs-throughput metering, and a verdict
// flip map over offload-table provisioning: the same comparison that
// favours the SmartNIC at ample table sizes inverts when churned flows
// overflow a fail-closed offload table, so the claim must state the
// provisioning regime it holds in (Principle 2 applied to a knob).

// statePressureOfferedPps fixes the offered load above the SmartNIC
// fast-path capacity (4.2 Mpps) and the single host core (~4.4 Mpps)
// but within their sum and within the 2-core baseline: the SmartNIC
// system delivers it only while the offload table actually absorbs the
// flow population, which is exactly the pressure this experiment
// varies. (The fault sweep deliberately sits below both; overload is
// this experiment's subject, not a nuisance.)
const statePressureOfferedPps = 6e6

// statePressureFlows scales the concurrent flow population to the
// trial length so per-flow repeat counts — and with them offload-table
// hit rates — stay meaningful at any fidelity (~16 packets per flow on
// average). The scenario generator itself is O(1) in the population
// size; workload tests exercise it at 10^7 flows.
func statePressureFlows(durationSeconds float64) int {
	flows := int(statePressureOfferedPps * durationSeconds / 16)
	if flows < 512 {
		flows = 512
	}
	if flows > 1<<20 {
		flows = 1 << 20
	}
	return flows
}

// statePressureConntrack is the production host-table configuration
// both systems run: a bounded LRU table with SYN cookies, sized to
// absorb the legitimate population.
func statePressureConntrack(seed uint64) nf.ConntrackConfig {
	return nf.ConntrackConfig{MaxEntries: 1 << 16, Policy: nf.EvictLRU, SYNCookies: true, Seed: seed}
}

// StatePressureRegime is one adversarial traffic regime: a name and
// the full scenario spec that reproduces it (replayable via
// fairsim -scenario).
type StatePressureRegime struct {
	Name     string
	Scenario workload.Scenario
}

// StatePressureRegimes returns the overload catalogue, scaled to the
// trial length: nominal Zipf traffic, a flash crowd doubling offered
// load mid-run, a half-rate spoofed SYN flood, and whole-population
// flow churn. The first regime is the healthy reference.
func StatePressureRegimes(durationSeconds float64) []StatePressureRegime {
	base := workload.Scenario{
		Flows:       statePressureFlows(durationSeconds),
		Skew:        1.1,
		TCPFraction: 0.3,
	}
	flash, flood, churn := base, base, base
	flash.Flash = &workload.FlashClause{At: durationSeconds * 0.25, For: durationSeconds * 0.5, Peak: 2}
	flood.SYNFlood = &workload.FloodClause{Rate: 0.5}
	churn.Churn = &workload.ChurnClause{Lifetime: durationSeconds / 2}
	return []StatePressureRegime{
		{Name: "nominal", Scenario: base},
		{Name: "flash-crowd", Scenario: flash},
		{Name: "syn-flood", Scenario: flood},
		{Name: "churn", Scenario: churn},
	}
}

// statePressureProposed builds the SmartNIC system with the given
// offload-table provisioning.
func statePressureProposed(seed uint64, tableSize int, evict nf.EvictPolicy) (*testbed.Deployment, []measure.StateProbe, error) {
	snic := testbed.ScenarioSmartNIC
	snic.FlowTableSize = tableSize
	snic.TableEvict = evict
	snic.EvictSeed = seed
	return testbed.StatePressureSmartNIC(snic, statePressureConntrack(seed))
}

// statePressureBaseline builds the 2-core host system.
func statePressureBaseline(seed uint64) (*testbed.Deployment, []measure.StateProbe, error) {
	return testbed.StatePressureHost("fw-host-2core-ct", 2, statePressureConntrack(seed))
}

// StatePressureMeasurement is one system's measured operating point
// under one regime: the Pareto coordinates (goodput, power) plus the
// state-pressure figures of merit.
type StatePressureMeasurement struct {
	Name string
	// GoodputGbps counts delivered legitimate traffic only;
	// ThroughputGbps counts everything delivered.
	GoodputGbps, ThroughputGbps float64
	PowerWatts                  float64
	LossFraction                float64
	// CollateralFraction is the share of legitimate packets the system
	// failed under pressure.
	CollateralFraction float64
	// State carries the full per-class and per-table summary (the
	// occupancy curves come from State.Samples).
	State measure.StateSummary
	// Conntrack aggregates the host tables' attributed counters.
	Conntrack nf.ConntrackStats
}

// PrimaryTable returns the system's headline state table (the offload
// table for the SmartNIC system, the conntrack table for the host).
func (m StatePressureMeasurement) PrimaryTable() measure.StateTableSummary {
	if len(m.State.Tables) == 0 {
		return measure.StateTableSummary{}
	}
	return m.State.Tables[0]
}

// StatePressureRow pairs the two systems' measurements under one
// regime. Proposed and Baseline are the nominal (median-goodput)
// trials; the trial slices and collateral CIs are populated when the
// run was replicated (Trials >= 2).
type StatePressureRow struct {
	Regime                         StatePressureRegime
	Proposed, Baseline             StatePressureMeasurement
	ProposedTrials, BaselineTrials []StatePressureMeasurement
	// Bootstrap confidence intervals of the collateral-damage medians
	// (zero-valued when unreplicated).
	ProposedCollateralCI, BaselineCollateralCI stats.Interval
}

// StatePressureFlipRow is the proposed system's measurement at one
// offload-table size of the flip-map sweep (the baseline is the churn
// row's — it does not depend on the swept knob).
type StatePressureFlipRow struct {
	TableSize      int
	Proposed       StatePressureMeasurement
	ProposedTrials []StatePressureMeasurement
}

// EvictionPolicyRow is one host-table degradation policy measured
// under the SYN-flood regime.
type EvictionPolicyRow struct {
	Policy      string
	Measurement StatePressureMeasurement
}

// StatePressureResult is the full experiment.
type StatePressureResult struct {
	OfferedPps float64
	Rows       []StatePressureRow
	// Comparison asks whether the healthy-regime verdict survives the
	// overload catalogue; Robust attaches per-regime relation agreement
	// when replicated.
	Comparison core.DegradedComparison
	Robust     *core.RobustDegradedComparison
	// FlipMap sweeps the offload-table size under churn with a
	// fail-closed (EvictNone) table; FlipRobust attaches per-size
	// agreement when replicated.
	FlipMap    core.FlipMap
	FlipRows   []StatePressureFlipRow
	FlipRobust *core.RobustDegradedComparison
	// Policies compares host-table eviction policies under the
	// SYN-flood regime.
	Policies []EvictionPolicyRow
}

// runStatePressure measures one system under one scenario with the
// traffic seeded for one trial.
func runStatePressure(mk func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error), o ExpOptions, sc workload.Scenario, seed uint64) (StatePressureMeasurement, error) {
	d, probes, err := mk(seed)
	if err != nil {
		return StatePressureMeasurement{}, err
	}
	sc.Seed = seed
	sg, err := workload.NewScenarioGen(sc)
	if err != nil {
		return StatePressureMeasurement{}, err
	}
	sm := measure.NewStateMeter()
	for _, p := range probes {
		sm.AddProbe(p)
	}
	res, err := d.RunScenario(sg, workload.Poisson{}, statePressureOfferedPps, o.TrialSeconds, sm)
	if err != nil {
		return StatePressureMeasurement{}, err
	}
	s, err := sm.Summarize(o.TrialSeconds)
	if err != nil {
		return StatePressureMeasurement{}, err
	}
	m := StatePressureMeasurement{
		Name:               res.Name,
		GoodputGbps:        s.GoodputGbps,
		ThroughputGbps:     s.ThroughputGbps,
		PowerWatts:         res.ProvisionedPowerWatts,
		LossFraction:       res.LossFraction,
		CollateralFraction: s.CollateralFraction,
		State:              s,
		Conntrack:          testbed.ConntrackStatsOf(d),
	}
	for _, c := range []struct {
		what string
		v    float64
	}{{"goodput", m.GoodputGbps}, {"power", m.PowerWatts}, {"collateral", m.CollateralFraction}} {
		if err := measure.CheckFinite(res.Name+" "+c.what, c.v); err != nil {
			return StatePressureMeasurement{}, err
		}
	}
	return m, nil
}

// runStatePressureTrials replicates runStatePressure over o.Trials
// seeded trials and returns the replicates in trial order.
func runStatePressureTrials(mk func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error), o ExpOptions, sc workload.Scenario) ([]StatePressureMeasurement, error) {
	trials, _, err := replicate(o, func(seed uint64) (StatePressureMeasurement, error) {
		return runStatePressure(mk, o, sc, seed)
	})
	return trials, err
}

// nominalStatePressure picks the median-goodput trial.
func nominalStatePressure(trials []StatePressureMeasurement) StatePressureMeasurement {
	return medianBy(trials, func(m StatePressureMeasurement) float64 { return m.GoodputGbps })
}

// statePressureSamples extracts paired (goodput, power) samples for
// the bootstrap, plus the collateral-damage samples.
func statePressureSamples(trials []StatePressureMeasurement) (pt core.PointSamples, collateral []float64) {
	for _, m := range trials {
		pt.Perf = append(pt.Perf, m.GoodputGbps)
		pt.Cost = append(pt.Cost, m.PowerWatts)
		collateral = append(collateral, m.CollateralFraction)
	}
	return pt, collateral
}

func statePressurePoint(m StatePressureMeasurement) core.Point {
	return core.Pt(metric.Q(m.GoodputGbps, metric.GigabitPerSecond), metric.Q(m.PowerWatts, metric.Watt))
}

// statePressureFlipSizes is the offload-table provisioning sweep,
// amply-provisioned end first (the flip map's reference).
var statePressureFlipSizes = []int{65536, 16384, 4096, 1024}

// RunStatePressure measures both systems under every overload regime,
// compares them per regime (first regime = healthy reference), sweeps
// the offload-table size under churn with a fail-closed table for the
// verdict flip map, and compares host-table eviction policies under
// the SYN flood. With Trials >= 2 every (system, regime) and flip-map
// cell is replicated over independently seeded trials and the verdicts
// carry bootstrap relation agreement.
func RunStatePressure(o ExpOptions) (StatePressureResult, error) {
	out := StatePressureResult{OfferedPps: statePressureOfferedPps}
	if err := o.Validate(); err != nil {
		return out, err
	}
	o = o.withDefaults()
	plane := core.DefaultPlane()

	proposed := func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error) {
		return statePressureProposed(seed, testbed.ScenarioSmartNIC.FlowTableSize, nf.EvictLRU)
	}

	regimes := StatePressureRegimes(o.TrialSeconds)
	for i := range regimes {
		// Stamp the base seed so the reported spec replays trial 0
		// verbatim (TrialSeed(seed, 0) == seed); replicate trials
		// override it per trial.
		regimes[i].Scenario.Seed = o.Seed
	}
	var pts []core.RegimePoint
	var rpts []core.ReplicatedRegimePoint
	for i, regime := range regimes {
		propTrials, err := runStatePressureTrials(proposed, o, regime.Scenario)
		if err != nil {
			return out, fmt.Errorf("state pressure: regime %s: %w", regime.Name, err)
		}
		baseTrials, err := runStatePressureTrials(statePressureBaseline, o, regime.Scenario)
		if err != nil {
			return out, fmt.Errorf("state pressure: regime %s: %w", regime.Name, err)
		}
		row := StatePressureRow{
			Regime:         regime,
			Proposed:       nominalStatePressure(propTrials),
			Baseline:       nominalStatePressure(baseTrials),
			ProposedTrials: propTrials,
			BaselineTrials: baseTrials,
		}
		propPt, propColl := statePressureSamples(propTrials)
		basePt, baseColl := statePressureSamples(baseTrials)
		if o.Trials >= 2 {
			// Independent resampling streams per (regime, system),
			// offset away from the other drivers' streams.
			if row.ProposedCollateralCI, err = stats.MedianCI(propColl, stats.CILevel, stats.MixSeed(o.Seed, uint64(2*i)+70)); err != nil {
				return out, fmt.Errorf("state pressure: regime %s: %w", regime.Name, err)
			}
			if row.BaselineCollateralCI, err = stats.MedianCI(baseColl, stats.CILevel, stats.MixSeed(o.Seed, uint64(2*i)+71)); err != nil {
				return out, fmt.Errorf("state pressure: regime %s: %w", regime.Name, err)
			}
		}
		out.Rows = append(out.Rows, row)
		pt := core.RegimePoint{
			Regime:   regime.Name,
			Proposed: statePressurePoint(row.Proposed),
			Baseline: statePressurePoint(row.Baseline),
		}
		pts = append(pts, pt)
		rpts = append(rpts, core.ReplicatedRegimePoint{
			RegimePoint:     pt,
			ProposedSamples: propPt,
			BaselineSamples: basePt,
		})
	}
	var err error
	out.Comparison, err = core.CompareUnderRegimes(plane, pts)
	if err != nil {
		return out, fmt.Errorf("state pressure: %w", err)
	}
	if o.Trials >= 2 {
		robust, err := core.CompareUnderRegimesReplicated(plane, rpts,
			o.Seed)
		if err != nil {
			return out, fmt.Errorf("state pressure: %w", err)
		}
		out.Robust = &robust
	}

	// Flip map: the churn regime against a fail-closed offload table,
	// swept over provisioning. Churned flows retire their five-tuples,
	// so a full EvictNone table clogs with stale entries and new
	// generations punt to the single host core; the amply-provisioned
	// end absorbs every generation. The baseline does not depend on the
	// swept knob — reuse the churn row's trials.
	churn := regimes[len(regimes)-1]
	baseFlip := out.Rows[len(out.Rows)-1]
	var flipPts []core.ParamPoint
	var flipRpts []core.ReplicatedRegimePoint
	baseFlipPt, _ := statePressureSamples(baseFlip.BaselineTrials)
	for _, size := range statePressureFlipSizes {
		size := size
		mk := func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error) {
			return statePressureProposed(seed, size, nf.EvictNone)
		}
		trials, err := runStatePressureTrials(mk, o, churn.Scenario)
		if err != nil {
			return out, fmt.Errorf("state pressure: flip map table=%d: %w", size, err)
		}
		nominal := nominalStatePressure(trials)
		out.FlipRows = append(out.FlipRows, StatePressureFlipRow{TableSize: size, Proposed: nominal, ProposedTrials: trials})
		flipPts = append(flipPts, core.ParamPoint{
			Param:    float64(size),
			Label:    fmt.Sprintf("%d", size),
			Proposed: statePressurePoint(nominal),
			Baseline: statePressurePoint(baseFlip.Baseline),
		})
		propPt, _ := statePressureSamples(trials)
		flipRpts = append(flipRpts, core.ReplicatedRegimePoint{
			RegimePoint: core.RegimePoint{
				Regime:   fmt.Sprintf("table=%d", size),
				Proposed: statePressurePoint(nominal),
				Baseline: statePressurePoint(baseFlip.Baseline),
			},
			ProposedSamples: propPt,
			BaselineSamples: baseFlipPt,
		})
	}
	out.FlipMap, err = core.FlipMapOverParam(plane, flipPts)
	if err != nil {
		return out, fmt.Errorf("state pressure: flip map: %w", err)
	}
	if o.Trials >= 2 {
		robust, err := core.CompareUnderRegimesReplicated(plane, flipRpts,
			o.Seed)
		if err != nil {
			return out, fmt.Errorf("state pressure: flip map: %w", err)
		}
		out.FlipRobust = &robust
	}

	// Eviction-policy comparison: the host system's connection table
	// under the SYN flood, sized so the legitimate population fits but
	// the flood presses. Fail-closed refuses new legitimate flows;
	// random eviction tears down established ones; LRU sheds the
	// never-touched-again flood entries; SYN cookies keep the flood out
	// of the table entirely.
	floodSc := regimes[2].Scenario
	policyEntries := floodSc.Flows / 2
	if policyEntries < 256 {
		policyEntries = 256
	}
	for _, pol := range []struct {
		name    string
		policy  nf.EvictPolicy
		cookies bool
	}{
		{"none", nf.EvictNone, false},
		{"random", nf.EvictRandom, false},
		{"lru", nf.EvictLRU, false},
		{"lru+syncookies", nf.EvictLRU, true},
	} {
		mk := func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error) {
			ct := nf.ConntrackConfig{MaxEntries: policyEntries, Policy: pol.policy, SYNCookies: pol.cookies, Seed: seed}
			return testbed.StatePressureHost("fw-host-2core-ct", 2, ct)
		}
		m, err := runStatePressure(mk, o, floodSc, TrialSeed(o.Seed, 0))
		if err != nil {
			return out, fmt.Errorf("state pressure: policy %s: %w", pol.name, err)
		}
		out.Policies = append(out.Policies, EvictionPolicyRow{Policy: pol.name, Measurement: m})
	}
	return out, nil
}

// StatePressureReport renders the experiment: per-regime measurements,
// the cross-regime verdicts, the flip map, the eviction-policy
// comparison, and the scenario specs that reproduce each regime.
func StatePressureReport(r StatePressureResult) string {
	t := report.NewTable(
		fmt.Sprintf("State pressure: fw-smartnic-ct vs fw-host-2core-ct at %.1f Mpps offered", r.OfferedPps/1e6),
		"Regime", "System", "Goodput (Gb/s)", "Throughput (Gb/s)", "Power (W)", "Collateral", "Table", "Peak occ", "Evict/s")
	for _, row := range r.Rows {
		for _, m := range []StatePressureMeasurement{row.Proposed, row.Baseline} {
			tb := m.PrimaryTable()
			t.AddRowf("%s|%s|%.3f|%.3f|%.0f|%.4f|%s|%d/%d|%.0f",
				row.Regime.Name, m.Name, m.GoodputGbps, m.ThroughputGbps, m.PowerWatts,
				m.CollateralFraction, tb.Name, tb.PeakOccupancy, tb.Capacity, tb.EvictionsPerSecond)
		}
	}
	out := t.Text() + "\n"

	vt := report.NewTable("Per-regime verdicts (reference: "+r.Comparison.Verdicts[0].Regime+")",
		"Regime", "Relation", "Region class", "Agreement")
	for i, v := range r.Comparison.Verdicts {
		agreement := "-"
		if r.Robust != nil && i < len(r.Robust.Confidence) {
			agreement = fmt.Sprintf("%.0f%%", r.Robust.Confidence[i].Agreement*100)
		}
		vt.AddRowf("%s|proposed %s baseline|%s|%s", v.Regime, v.Relation, v.Class, agreement)
	}
	out += vt.Text() + "\n"

	ft := report.NewTable("Verdict flip map: offload-table entries under churn (EvictNone, fail closed)",
		"Entries", "Relation", "Region class", "Flipped", "Agreement", "Goodput (Gb/s)", "Offload peak occ")
	for i, e := range r.FlipMap.Entries {
		flipped := ""
		if e.Flipped {
			flipped = "FLIP"
		}
		agreement := "-"
		if r.FlipRobust != nil && i < len(r.FlipRobust.Confidence) {
			agreement = fmt.Sprintf("%.0f%%", r.FlipRobust.Confidence[i].Agreement*100)
		}
		fr := r.FlipRows[i]
		tb := fr.Proposed.PrimaryTable()
		ft.AddRowf("%s|proposed %s baseline|%s|%s|%s|%.3f|%d/%d",
			e.Label, e.Relation, e.Class, flipped, agreement, fr.Proposed.GoodputGbps, tb.PeakOccupancy, tb.Capacity)
	}
	out += ft.Text() + "\n" + r.FlipMap.Summary() + "\n\n"

	pt := report.NewTable("Host-table eviction policy under SYN flood (2048+ entry table, 2 cores)",
		"Policy", "Goodput (Gb/s)", "Collateral", "Overflow drops", "Established evicted", "Cookies sent", "Cookie bypassed")
	for _, p := range r.Policies {
		cs := p.Measurement.Conntrack
		pt.AddRowf("%s|%.3f|%.4f|%d|%d|%d|%d",
			p.Policy, p.Measurement.GoodputGbps, p.Measurement.CollateralFraction,
			cs.OverflowDrops, cs.EvictedEstablished, cs.SYNCookiesSent, cs.CookieBypassed)
	}
	out += pt.Text() + "\n"

	if r.Robust != nil {
		ct := report.NewTable("Collateral-damage medians with bootstrap CIs (replicated run)",
			"Regime", "System", "Collateral CI")
		for _, row := range r.Rows {
			ct.AddRowf("%s|%s|%s", row.Regime.Name, row.Proposed.Name, row.ProposedCollateralCI)
			ct.AddRowf("%s|%s|%s", row.Regime.Name, row.Baseline.Name, row.BaselineCollateralCI)
		}
		out += ct.Text() + "\n" + r.Robust.Summary() + "\n"
	} else {
		out += r.Comparison.Summary() + "\n"
	}

	out += "\nScenario specs (replay with fairsim -scenario):\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-12s %s\n", row.Regime.Name, row.Regime.Scenario.String())
	}
	return out
}

// StatePressureCSV renders the per-regime data for plotting.
func StatePressureCSV(r StatePressureResult) string {
	t := report.NewTable("", "regime", "system", "goodput_gbps", "throughput_gbps", "power_w",
		"loss_fraction", "collateral_fraction", "table", "peak_occupancy", "capacity",
		"occupancy_fraction", "evictions_per_s", "relation")
	for i, row := range r.Rows {
		rel := r.Comparison.Verdicts[i].Relation
		for _, m := range []StatePressureMeasurement{row.Proposed, row.Baseline} {
			tb := m.PrimaryTable()
			t.AddRowf("%s|%s|%.4f|%.4f|%.1f|%.6f|%.6f|%s|%d|%d|%.4f|%.1f|%s",
				row.Regime.Name, m.Name, m.GoodputGbps, m.ThroughputGbps, m.PowerWatts,
				m.LossFraction, m.CollateralFraction, tb.Name, tb.PeakOccupancy, tb.Capacity,
				tb.OccupancyFraction, tb.EvictionsPerSecond, rel)
		}
	}
	return t.CSV()
}

// StatePressureCurvesCSV renders the sampled occupancy series of every
// probed table — the pressure curves.
func StatePressureCurvesCSV(r StatePressureResult) string {
	t := report.NewTable("", "regime", "system", "t_s", "table", "occupancy", "capacity", "evictions")
	for _, row := range r.Rows {
		for _, m := range []StatePressureMeasurement{row.Proposed, row.Baseline} {
			for _, s := range m.State.Samples {
				for j, tb := range m.State.Tables {
					t.AddRowf("%s|%s|%.6f|%s|%d|%d|%d",
						row.Regime.Name, m.Name, s.T, tb.Name, s.Occupancy[j], tb.Capacity, s.Evictions[j])
				}
			}
		}
	}
	return t.CSV()
}

// StatePressureFlipCSV renders the flip-map sweep.
func StatePressureFlipCSV(r StatePressureResult) string {
	base := StatePressureMeasurement{}
	if len(r.Rows) > 0 {
		base = r.Rows[len(r.Rows)-1].Baseline
	}
	t := report.NewTable("", "offload_entries", "proposed_goodput_gbps", "proposed_power_w",
		"baseline_goodput_gbps", "baseline_power_w", "offload_peak_occupancy", "install_refusals_seen",
		"relation", "region_class", "flipped", "agreement")
	for i, e := range r.FlipMap.Entries {
		fr := r.FlipRows[i]
		tb := fr.Proposed.PrimaryTable()
		agreement := ""
		if r.FlipRobust != nil && i < len(r.FlipRobust.Confidence) {
			agreement = fmt.Sprintf("%.4f", r.FlipRobust.Confidence[i].Agreement)
		}
		t.AddRowf("%d|%.4f|%.1f|%.4f|%.1f|%d|%t|%s|%s|%t|%s",
			fr.TableSize, fr.Proposed.GoodputGbps, fr.Proposed.PowerWatts,
			base.GoodputGbps, base.PowerWatts, tb.PeakOccupancy,
			tb.PeakOccupancy >= fr.TableSize, e.Relation, e.Class, e.Flipped, agreement)
	}
	return t.CSV()
}
