package fairbench

import (
	"fmt"

	"fairbench/internal/core"
	"fairbench/internal/fault"
	"fairbench/internal/measure"
	"fairbench/internal/metric"
	"fairbench/internal/report"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// Fault sweep: fairness under failure. The paper's Principle 2 says
// systems must be compared in the same operating regime; a deployment's
// regimes include degraded ones. This experiment runs the §4.2 pair —
// the SmartNIC-accelerated firewall vs the 2-core host baseline — at a
// fixed offered load under every regime in the scenario catalogue
// (healthy, SmartNIC outage, core brownout, link loss, burst overload),
// and asks whether the healthy-regime Pareto verdict survives failure.

// faultSweepOfferedPps is the sweep's fixed offered load: just under
// the SmartNIC fast-path capacity, comfortably within the 2-core
// baseline, so healthy-regime differences come from the systems and
// degraded-regime differences come from the faults.
const faultSweepOfferedPps = 4e6

// FaultedMeasurement is one system's measured operating point under one
// fault regime, including the degraded-regime figures of merit.
type FaultedMeasurement struct {
	Name         string
	GoodputGbps  float64
	PowerWatts   float64
	LossFraction float64
	// Availability figures from the per-window meter.
	Availability          float64
	MinWindowAvailability float64
	DegradationDepth      float64
	RecoverySeconds       float64
}

// FaultSweepRow pairs the two systems' measurements under one regime.
// Proposed and Baseline are the nominal (median-goodput) trials; the
// trial slices and availability CIs are populated when the sweep was
// replicated (Trials >= 2).
type FaultSweepRow struct {
	Regime             testbed.FaultRegime
	Proposed, Baseline FaultedMeasurement
	// Per-trial replicates, in trial order (single-element when
	// unreplicated).
	ProposedTrials, BaselineTrials []FaultedMeasurement
	// Bootstrap confidence intervals of the availability medians
	// (zero-valued when unreplicated).
	ProposedAvailCI, BaselineAvailCI stats.Interval
}

// FaultSweepResult is the full sweep plus the cross-regime comparison.
type FaultSweepResult struct {
	OfferedPps float64
	Rows       []FaultSweepRow
	Comparison core.DegradedComparison
	// Robust attaches per-regime relation agreement under bootstrap
	// resampling when the sweep was replicated (Trials >= 2), else nil.
	Robust *core.RobustDegradedComparison
}

// runFaulted measures one deployment under one fault spec with the
// workload seeded for one trial. The fault schedule itself is part of
// the regime, so it does not vary across trials — only the traffic
// does.
func runFaulted(mk func() (*testbed.Deployment, error), o ExpOptions, spec fault.Spec, seed uint64) (FaultedMeasurement, error) {
	d, err := mk()
	if err != nil {
		return FaultedMeasurement{}, err
	}
	g, err := testbed.E6Workload(seed)
	if err != nil {
		return FaultedMeasurement{}, err
	}
	res, rep, err := d.RunWithFaults(g, workload.Poisson{}, faultSweepOfferedPps, o.TrialSeconds, spec)
	if err != nil {
		return FaultedMeasurement{}, err
	}
	m := FaultedMeasurement{
		Name:                  res.Name,
		GoodputGbps:           res.Processed.GbPerSecond(),
		PowerWatts:            res.ProvisionedPowerWatts,
		LossFraction:          res.LossFraction,
		Availability:          rep.Avail.Availability,
		MinWindowAvailability: rep.Avail.MinWindowAvailability,
		DegradationDepth:      rep.Avail.DegradationDepth,
		RecoverySeconds:       rep.Avail.RecoverySeconds,
	}
	for _, c := range []struct {
		what string
		v    float64
	}{{"goodput", m.GoodputGbps}, {"power", m.PowerWatts}, {"availability", m.Availability}} {
		if err := measure.CheckFinite(res.Name+" "+c.what, c.v); err != nil {
			return FaultedMeasurement{}, err
		}
	}
	return m, nil
}

// runFaultedTrials replicates runFaulted over o.Trials seeded trials
// and returns the replicates in trial order.
func runFaultedTrials(mk func() (*testbed.Deployment, error), o ExpOptions, spec fault.Spec) ([]FaultedMeasurement, error) {
	trials, _, err := replicate(o, func(seed uint64) (FaultedMeasurement, error) {
		return runFaulted(mk, o, spec, seed)
	})
	return trials, err
}

// nominalFaulted picks the median-goodput trial.
func nominalFaulted(trials []FaultedMeasurement) FaultedMeasurement {
	return medianBy(trials, func(m FaultedMeasurement) float64 { return m.GoodputGbps })
}

// faultedSamples extracts paired (goodput, power) samples for the
// bootstrap, plus the availability samples.
func faultedSamples(trials []FaultedMeasurement) (pt core.PointSamples, avail []float64) {
	for _, m := range trials {
		pt.Perf = append(pt.Perf, m.GoodputGbps)
		pt.Cost = append(pt.Cost, m.PowerWatts)
		avail = append(avail, m.Availability)
	}
	return pt, avail
}

// RunFaultSweep measures both systems under every catalogue regime and
// compares them per regime (first regime = healthy reference). With
// Trials >= 2 each (system, regime) cell is replicated over
// independently seeded trials, availability medians carry bootstrap
// CIs, and the cross-regime comparison carries per-regime relation
// agreement.
func RunFaultSweep(o ExpOptions) (FaultSweepResult, error) {
	out := FaultSweepResult{OfferedPps: faultSweepOfferedPps}
	if err := o.Validate(); err != nil {
		return out, err
	}
	o = o.withDefaults()
	var pts []core.RegimePoint
	var rpts []core.ReplicatedRegimePoint
	for i, regime := range testbed.FaultSweepRegimes(o.TrialSeconds) {
		spec := fault.Spec{}
		if regime.Spec != "" {
			var err error
			spec, err = fault.ParseSpec(regime.Spec)
			if err != nil {
				return out, fmt.Errorf("fault sweep: regime %s: %w", regime.Name, err)
			}
		}
		propTrials, err := runFaultedTrials(func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() }, o, spec)
		if err != nil {
			return out, fmt.Errorf("fault sweep: regime %s: %w", regime.Name, err)
		}
		baseTrials, err := runFaultedTrials(func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(2) }, o, spec)
		if err != nil {
			return out, fmt.Errorf("fault sweep: regime %s: %w", regime.Name, err)
		}
		row := FaultSweepRow{
			Regime:         regime,
			Proposed:       nominalFaulted(propTrials),
			Baseline:       nominalFaulted(baseTrials),
			ProposedTrials: propTrials,
			BaselineTrials: baseTrials,
		}
		propPt, propAvail := faultedSamples(propTrials)
		basePt, baseAvail := faultedSamples(baseTrials)
		if o.Trials >= 2 {
			// Independent resampling streams per (regime, system).
			if row.ProposedAvailCI, err = stats.MedianCI(propAvail, stats.CILevel, stats.MixSeed(o.Seed, uint64(2*i)+50)); err != nil {
				return out, fmt.Errorf("fault sweep: regime %s: %w", regime.Name, err)
			}
			if row.BaselineAvailCI, err = stats.MedianCI(baseAvail, stats.CILevel, stats.MixSeed(o.Seed, uint64(2*i)+51)); err != nil {
				return out, fmt.Errorf("fault sweep: regime %s: %w", regime.Name, err)
			}
		}
		out.Rows = append(out.Rows, row)
		pt := core.RegimePoint{
			Regime:   regime.Name,
			Proposed: core.Pt(metric.Q(row.Proposed.GoodputGbps, metric.GigabitPerSecond), metric.Q(row.Proposed.PowerWatts, metric.Watt)),
			Baseline: core.Pt(metric.Q(row.Baseline.GoodputGbps, metric.GigabitPerSecond), metric.Q(row.Baseline.PowerWatts, metric.Watt)),
		}
		pts = append(pts, pt)
		rpts = append(rpts, core.ReplicatedRegimePoint{
			RegimePoint:     pt,
			ProposedSamples: propPt,
			BaselineSamples: basePt,
		})
	}
	var err error
	out.Comparison, err = core.CompareUnderRegimes(core.DefaultPlane(), pts)
	if err != nil {
		return out, fmt.Errorf("fault sweep: %w", err)
	}
	if o.Trials >= 2 {
		robust, err := core.CompareUnderRegimesReplicated(core.DefaultPlane(), rpts,
			o.Seed)
		if err != nil {
			return out, fmt.Errorf("fault sweep: %w", err)
		}
		out.Robust = &robust
	}
	return out, nil
}

// FaultSweepReport renders the sweep: per-regime measurements, the
// per-regime verdicts, and the stability conclusion.
func FaultSweepReport(r FaultSweepResult) string {
	t := report.NewTable(
		fmt.Sprintf("Fairness under failure: fw-smartnic vs fw-host-2core at %.1f Mpps offered", r.OfferedPps/1e6),
		"Regime", "System", "Goodput (Gb/s)", "Power (W)", "Loss", "Availability", "Depth", "Recovery (ms)")
	for _, row := range r.Rows {
		for _, m := range []FaultedMeasurement{row.Proposed, row.Baseline} {
			t.AddRowf("%s|%s|%.2f|%.0f|%.4f|%.4f|%.4f|%.2f",
				row.Regime.Name, m.Name, m.GoodputGbps, m.PowerWatts,
				m.LossFraction, m.Availability, m.DegradationDepth, m.RecoverySeconds*1e3)
		}
	}
	vt := report.NewTable("Per-regime verdicts (reference: "+r.Comparison.Verdicts[0].Regime+")",
		"Regime", "Relation", "Region class", "Agreement", "Fault spec")
	for i, v := range r.Comparison.Verdicts {
		spec := r.Rows[i].Regime.Spec
		if spec == "" {
			spec = "(none)"
		}
		agreement := "-"
		if r.Robust != nil && i < len(r.Robust.Confidence) {
			agreement = fmt.Sprintf("%.0f%%", r.Robust.Confidence[i].Agreement*100)
		}
		vt.AddRowf("%s|proposed %s baseline|%s|%s|%s", v.Regime, v.Relation, v.Class, agreement, spec)
	}
	out := t.Text() + "\n"
	if r.Robust != nil {
		at := report.NewTable("Availability medians with bootstrap CIs (replicated sweep)",
			"Regime", "System", "Availability CI")
		for _, row := range r.Rows {
			at.AddRowf("%s|%s|%s", row.Regime.Name, row.Proposed.Name, row.ProposedAvailCI)
			at.AddRowf("%s|%s|%s", row.Regime.Name, row.Baseline.Name, row.BaselineAvailCI)
		}
		out += at.Text() + "\n" + vt.Text() + "\n" + r.Robust.Summary() + "\n"
		return out
	}
	return out + vt.Text() + "\n" + r.Comparison.Summary() + "\n"
}

// FaultSweepCSV renders the sweep data for plotting.
func FaultSweepCSV(r FaultSweepResult) string {
	t := report.NewTable("", "regime", "system", "goodput_gbps", "power_w", "loss_fraction",
		"availability", "min_window_availability", "degradation_depth", "recovery_ms", "relation")
	for i, row := range r.Rows {
		rel := r.Comparison.Verdicts[i].Relation
		for _, m := range []FaultedMeasurement{row.Proposed, row.Baseline} {
			t.AddRowf("%s|%s|%.4f|%.1f|%.6f|%.6f|%.6f|%.6f|%.4f|%s",
				row.Regime.Name, m.Name, m.GoodputGbps, m.PowerWatts, m.LossFraction,
				m.Availability, m.MinWindowAvailability, m.DegradationDepth, m.RecoverySeconds*1e3, rel)
		}
	}
	return t.CSV()
}
