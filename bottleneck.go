package fairbench

import (
	"fmt"
	"strings"

	"fairbench/internal/core"
	"fairbench/internal/fault"
	"fairbench/internal/profile"
	"fairbench/internal/report"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// Bottleneck-profile experiment (extension): the paper's complaint is
// that comparisons report *that* one device class wins without saying
// *why*. This driver runs the saturation-delta profiler over the §4.2
// SmartNIC firewall comparison, joins the profiles with the robust
// verdict into an ExplainedVerdict, and attributes each fault-regime
// flip of the degraded sweep to the faulted component.

// BottleneckProfileResult bundles everything the profiler learned about
// the §4.2 comparison.
type BottleneckProfileResult struct {
	// Proposed and Baseline are the two systems' saturation-delta
	// profiles (fw-smartnic vs fw-host-2core).
	Proposed, Baseline profile.Profile
	// ProposedSys and BaselineSys are the replicated RFC 2544
	// measurements behind the verdict.
	ProposedSys, BaselineSys ReplicatedSystem
	// Robust is the replicated throughput/power verdict.
	Robust core.RobustVerdict
	// Explained joins the verdict with the two profiles.
	Explained core.ExplainedVerdict
	// Sweep is the degraded-regime comparison the flips come from.
	Sweep FaultSweepResult
	// Flips attributes each regime flip to the faulted component.
	Flips []core.FlipAttribution
}

// componentProfile converts a profiler result into the core layer's
// evidence shape.
func componentProfile(p profile.Profile) core.ComponentProfile {
	cp := core.ComponentProfile{System: p.System, SaturationPps: p.SaturationPps}
	for _, op := range p.Operators {
		cp.Effects = append(cp.Effects, core.ComponentEffect{
			Component:   op.Operator,
			Description: op.Description,
			DeltaPps:    op.DeltaPps,
			CI:          op.DeltaCI,
			Share:       op.Share,
		})
	}
	for _, r := range p.Regimes {
		cp.Bottlenecks = append(cp.Bottlenecks, core.BottleneckObservation{
			Regime: r.Regime, Device: r.Device, Utilization: r.Utilization,
		})
	}
	return cp
}

// regimeComponents maps each fault regime to the component its spec
// targets, parsing the spec's clauses: device-targeted faults name the
// pipeline component they take out; environmental faults (link loss,
// bursts) map to no component.
func regimeComponents(regimes []testbed.FaultRegime) ([]core.RegimeComponent, error) {
	var out []core.RegimeComponent
	for _, reg := range regimes {
		rc := core.RegimeComponent{Regime: reg.Name}
		if reg.Spec != "" {
			spec, err := fault.ParseSpec(reg.Spec)
			if err != nil {
				return nil, fmt.Errorf("regime %s: %w", reg.Name, err)
			}
			for _, c := range spec.Clauses {
				switch c.Target {
				case fault.TargetSmartNIC:
					rc.Component = testbed.StageSmartNICFastPath
				case fault.TargetSwitch:
					rc.Component = testbed.StageSwitchPredrop
				case fault.TargetCores:
					rc.Component = "host-cores"
				case fault.TargetFPGA:
					rc.Component = "fpga-pipeline"
				default:
					continue
				}
				break
			}
		}
		out = append(out, rc)
	}
	return out, nil
}

// RunBottleneckProfile profiles the §4.2 SmartNIC comparison end to
// end: saturation-delta operator costs and per-regime bottlenecks for
// both systems, a replicated verdict, its explanation, and the
// attribution of every fault-regime flip.
func RunBottleneckProfile(o ExpOptions) (BottleneckProfileResult, error) {
	o = o.withDefaults()
	var res BottleneckProfileResult
	po := profile.Options{
		TrialSeconds:       o.TrialSeconds,
		Seed:               o.Seed,
		Trials:             o.Trials,
		ResolutionFraction: o.SearchResolution,
		Level:              ciLevel,
	}

	propTarget, err := testbed.FirewallProfileTarget("smartnic")
	if err != nil {
		return res, err
	}
	baseTarget, err := testbed.FirewallProfileTarget("host-2core")
	if err != nil {
		return res, err
	}
	if res.Proposed, err = profile.Run(propTarget, po); err != nil {
		return res, err
	}
	if res.Baseline, err = profile.Run(baseTarget, po); err != nil {
		return res, err
	}

	gen := func(seed uint64) (*workload.Generator, error) { return testbed.E6Workload(seed) }
	res.ProposedSys, err = measureThroughput("fw-smartnic",
		func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() }, gen, o, 24e6)
	if err != nil {
		return res, err
	}
	res.BaselineSys, err = measureThroughput("fw-host-2core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(2) }, gen, o, 24e6)
	if err != nil {
		return res, err
	}
	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	res.Robust, err = e.EvaluateReplicated(
		res.ProposedSys.ThroughputPowerSystem(true),
		res.BaselineSys.ThroughputPowerSystem(true),
		res.ProposedSys.ThroughputPowerSamples(),
		res.BaselineSys.ThroughputPowerSamples(),
		o.robustOptions())
	if err != nil {
		return res, err
	}

	cp, bp := componentProfile(res.Proposed), componentProfile(res.Baseline)
	res.Explained, err = core.ExplainVerdict(res.Robust, cp, bp)
	if err != nil {
		return res, err
	}

	if res.Sweep, err = RunFaultSweep(o); err != nil {
		return res, err
	}
	rc, err := regimeComponents(testbed.FaultSweepRegimes(o.TrialSeconds))
	if err != nil {
		return res, err
	}
	res.Flips = core.AttributeFlips(res.Sweep.Comparison, rc, cp, bp)
	return res, nil
}

// BottleneckProfileReport renders the full profile as markdown.
func BottleneckProfileReport(r BottleneckProfileResult) string {
	var b strings.Builder
	b.WriteString("# Bottleneck profile: fw-smartnic vs fw-host-2core\n\n")
	b.WriteString("## Explained verdict\n\n")
	fmt.Fprintf(&b, "%s\n\nEvidence:\n\n", r.Explained.Attribution)
	for _, line := range r.Explained.Evidence {
		fmt.Fprintf(&b, "- %s\n", line)
	}
	b.WriteString("\n## Per-operator saturation-delta costs\n\n")
	b.WriteString(operatorCostTable(r).Markdown())
	b.WriteString("\n## Bottleneck map\n\n")
	b.WriteString(bottleneckMapTable(r).Markdown())
	b.WriteString("\n## Fault-regime flips\n\n")
	if len(r.Flips) == 0 {
		fmt.Fprintf(&b, "The verdict held in all %d degraded regimes — no flips to attribute.\n",
			len(r.Sweep.Comparison.Verdicts))
	} else {
		for _, f := range r.Flips {
			fmt.Fprintf(&b, "- %s\n", f.Explanation)
		}
	}
	b.WriteString("\nSign convention: Δ = saturation(ablated) − saturation(full). " +
		"Negative Δ means the operator contributes capacity; ablated devices stay in the BOM, " +
		"so only the performance axis moves. See DESIGN.md §7 for the ablation-validity caveats.\n")
	return b.String()
}

// operatorCostTable tabulates both systems' operator costs.
func operatorCostTable(r BottleneckProfileResult) *report.Table {
	t := report.NewTable("Per-operator saturation deltas",
		"System", "Operator", "Full (Mpps)", "Ablated (Mpps)", "Δ (Mpps)", "95% CI (Mpps)", "Share", "Trials")
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		for _, op := range p.Operators {
			t.AddRowf("%s|%s|%.3f|%.3f|%+.3f|[%.3f, %.3f]|%+.1f%%|%d",
				p.System, op.Operator, op.FullPps/1e6, op.AblatedPps/1e6, op.DeltaPps/1e6,
				op.DeltaCI.Lo/1e6, op.DeltaCI.Hi/1e6, op.Share*100, op.Trials)
		}
	}
	return t
}

// bottleneckMapTable tabulates the bottleneck per system and regime.
func bottleneckMapTable(r BottleneckProfileResult) *report.Table {
	t := report.NewTable("Bottleneck device per system and load regime",
		"System", "Regime", "Load", "Offered (Mpps)", "Loss", "Bottleneck", "Mean util", "Max queue")
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		for _, reg := range p.Regimes {
			t.AddRowf("%s|%s|%.0f%%|%.3f|%.2f%%|%s|%.0f%%|%d",
				p.System, reg.Regime, reg.LoadFraction*100, reg.OfferedPps/1e6,
				reg.LossFraction*100, reg.Device, reg.Utilization*100, reg.MaxQueue)
		}
	}
	return t
}

// BottleneckCostCSV renders the operator costs as CSV.
func BottleneckCostCSV(r BottleneckProfileResult) string {
	t := report.NewTable("", "system", "operator", "full_pps", "ablated_pps", "delta_pps", "ci_lo_pps", "ci_hi_pps", "share", "trials")
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		for _, op := range p.Operators {
			t.AddRowf("%s|%s|%.0f|%.0f|%.0f|%.0f|%.0f|%.4f|%d",
				p.System, op.Operator, op.FullPps, op.AblatedPps, op.DeltaPps,
				op.DeltaCI.Lo, op.DeltaCI.Hi, op.Share, op.Trials)
		}
	}
	return t.CSV()
}

// BottleneckMapCSV renders the bottleneck map as CSV.
func BottleneckMapCSV(r BottleneckProfileResult) string {
	t := report.NewTable("", "system", "regime", "load_fraction", "offered_pps", "loss_fraction", "bottleneck", "mean_util", "max_queue")
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		for _, reg := range p.Regimes {
			t.AddRowf("%s|%s|%.2f|%.0f|%.4f|%s|%.4f|%d",
				p.System, reg.Regime, reg.LoadFraction, reg.OfferedPps,
				reg.LossFraction, reg.Device, reg.Utilization, reg.MaxQueue)
		}
	}
	return t.CSV()
}

// BottleneckCostChart renders the per-operator deltas as a grouped bar
// chart, one group per operator (union across systems, first-seen
// order), one bar per system.
func BottleneckCostChart(r BottleneckProfileResult) *report.BarChart {
	seen := make(map[string]bool)
	var groups []string
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		for _, op := range p.Operators {
			if !seen[op.Operator] {
				seen[op.Operator] = true
				groups = append(groups, op.Operator)
			}
		}
	}
	series := make([]report.BarSeries, 0, 2)
	for _, p := range []profile.Profile{r.Proposed, r.Baseline} {
		vals := make([]float64, len(groups))
		for i, g := range groups {
			for _, op := range p.Operators {
				if op.Operator == g {
					vals[i] = op.DeltaPps / 1e6
					break
				}
			}
		}
		series = append(series, report.BarSeries{Name: p.System, Values: vals})
	}
	return &report.BarChart{
		Title:  "Operator cost: saturation delta when ablated",
		YLabel: "Δ saturation (Mpps)",
		Groups: groups,
		Series: series,
	}
}
