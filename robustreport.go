package fairbench

import (
	"fmt"
	"strings"

	"fairbench/internal/core"
	"fairbench/internal/report"
	"fairbench/internal/stats"
)

// RobustSmartNICReport renders the replicated §4.2 example as markdown:
// the per-trial measurements behind each system, the per-axis bootstrap
// confidence intervals, and the robust verdict with its conclusion
// distribution. Deterministic in the option seed.
func RobustSmartNICReport(e SmartNICResult, o ExpOptions) string {
	var b strings.Builder
	b.WriteString("# §4.2 example under replication: robust verdict\n\n")
	fmt.Fprintf(&b, "Each system measured over %d independently seeded RFC 2544 searches "+
		"(base seed %d, per-trial seeds via SplitMix mixing).\n\n",
		len(e.Proposed.Trials), o.Seed)

	trials := report.NewTable("Per-trial measurements",
		"System", "Trial", "Seed", "Throughput (Gb/s)", "Power (W)", "p99 latency (µs)")
	for _, sys := range []ReplicatedSystem{e.Baseline2, e.Proposed} {
		for i, m := range sys.Trials {
			trials.AddRowf("%s|%d|%d|%.3f|%.0f|%.2f",
				sys.Name, i, sys.Seeds[i], m.ThroughputGbps, m.PowerWatts, m.LatencyP99Us)
		}
	}
	b.WriteString(trials.Markdown())
	b.WriteString("\n")

	if e.RobustVs2 == nil {
		b.WriteString("Run was not replicated (Trials < 2): no robust verdict.\n")
		return b.String()
	}
	rv := e.RobustVs2

	axes := report.NewTable(fmt.Sprintf("Across-trial axis summaries (%.0f%% bootstrap CIs)", stats.CILevel*100),
		"System", "Axis", "Median", "CI", "Half-width", "CV", "Outlier trials")
	addAxis := func(system, axis string, s core.AxisSummary) {
		axes.AddRowf("%s|%s|%.3f|%s|%.3f|%.4f|%d",
			system, axis, s.Median, s.CI, s.CI.HalfWidth(), s.CV, s.Outliers)
	}
	addAxis(e.Proposed.Name, "throughput (Gb/s)", rv.ProposedPerf)
	addAxis(e.Proposed.Name, "power (W)", rv.ProposedCost)
	addAxis(e.Baseline2.Name, "throughput (Gb/s)", rv.BaselinePerf)
	addAxis(e.Baseline2.Name, "power (W)", rv.BaselineCost)
	b.WriteString(axes.Markdown())
	b.WriteString("\n")

	fmt.Fprintf(&b, "## Verdict\n\n%s vs %s: **%s**\n\n", e.Proposed.Name, e.Baseline2.Name, rv)
	dist := report.NewTable("Conclusion distribution over resamples", "Conclusion", "Resamples", "Share")
	for _, c := range conclusionOrder(rv) {
		n := rv.Distribution[c]
		dist.AddRowf("%s|%d|%.1f%%", c, n, 100*float64(n)/stats.Resamples)
	}
	b.WriteString(dist.Markdown())
	b.WriteString("\n")
	if len(rv.Flips) > 0 {
		names := make([]string, len(rv.Flips))
		for i, c := range rv.Flips {
			names[i] = c.String()
		}
		fmt.Fprintf(&b, "Observed flips (most frequent first): %s.\n\n", strings.Join(names, ", "))
	} else {
		b.WriteString("No resample disagreed with the nominal conclusion.\n\n")
	}
	fmt.Fprintf(&b, "Sensitivity grid at the measured noise level: %.1f%% of ±%.0f%% "+
		"perturbations keep the nominal conclusion (%d evaluations).\n",
		rv.Sensitivity.Stability*100, rv.Sensitivity.RelError*100, rv.Sensitivity.Evaluations)
	return b.String()
}

// conclusionOrder lists the observed conclusions nominal-first, then
// flips by descending frequency — the order a reader scans them in.
func conclusionOrder(rv *core.RobustVerdict) []core.Conclusion {
	out := []core.Conclusion{rv.Conclusion}
	out = append(out, rv.Flips...)
	return out
}
