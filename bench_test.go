package fairbench

// Benchmark harness: one benchmark per paper artifact (see the
// per-experiment index in DESIGN.md). Each benchmark regenerates its
// table/figure/example end-to-end — workload generation, discrete-event
// simulation of the heterogeneous deployments, RFC 2544 measurement,
// and the seven-principle evaluation — and reports the headline numbers
// as custom metrics so `go test -bench` output doubles as the
// reproduction log (EXPERIMENTS.md records the paper-vs-measured
// comparison).

import (
	"testing"

	"fairbench/internal/core"
)

func benchOpts() ExpOptions {
	// Benchmark fidelity sits between Quick() and the default: enough
	// simulated time for stable numbers, small enough to iterate.
	return ExpOptions{TrialSeconds: 0.01, Seed: 1, SearchResolution: 0.03}
}

// BenchmarkTable1Classification regenerates Table 1 (experiment E1).
func BenchmarkTable1Classification(b *testing.B) {
	var res Table1Result
	for i := 0; i < b.N; i++ {
		res = RunTable1()
	}
	b.ReportMetric(float64(len(res.Classification.ContextIndependent)), "ctx-indep-metrics")
	b.ReportMetric(float64(len(res.Classification.ContextDependent)), "ctx-dep-metrics")
}

// BenchmarkPracticalMetricScorecard regenerates the §3.4 scorecard
// (experiment E10).
func BenchmarkPracticalMetricScorecard(b *testing.B) {
	var suitable int
	for i := 0; i < b.N; i++ {
		suitable = 0
		for _, row := range RunTable1().Scorecard {
			if row.Suitable {
				suitable++
			}
		}
	}
	b.ReportMetric(float64(suitable), "suitable-metrics")
}

// BenchmarkFigure1aSameCost regenerates Figure 1a and 1b (experiments
// E2 and E3): same-regime comparisons from measured systems.
func BenchmarkFigure1aSameCost(b *testing.B) {
	var res Figure1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunFigure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OldSameCost.ThroughputGbps, "old-gbps")
	b.ReportMetric(res.NewSameCost.ThroughputGbps, "new-gbps")
	b.ReportMetric(res.OldSameCost.PowerWatts, "cost-watts")
}

// BenchmarkFigure1bSamePerf reports the Figure 1b half of the same run.
func BenchmarkFigure1bSamePerf(b *testing.B) {
	var res Figure1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunFigure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TargetGbps, "target-gbps")
	b.ReportMetric(res.OldSamePerf.PowerWatts, "old-watts")
	b.ReportMetric(res.NewSamePerf.PowerWatts, "new-watts")
}

// BenchmarkFigure2ComparisonRegion regenerates Figure 2 (experiment E4).
func BenchmarkFigure2ComparisonRegion(b *testing.B) {
	var res Figure2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunFigure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	inRegion := 0
	for _, c := range res.Grid {
		if c.Class != core.OutsideCheaperWorse && c.Class != core.OutsideFasterCostlier {
			inRegion++
		}
	}
	b.ReportMetric(float64(inRegion), "in-region-cells")
	b.ReportMetric(float64(len(res.Grid)), "grid-cells")
}

// BenchmarkFigure3IdealScaling regenerates Figure 3's construction
// (experiment E5) on the measured §4.2.1 systems.
func BenchmarkFigure3IdealScaling(b *testing.B) {
	var res SwitchScalingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunSwitchScaling(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Verdict.Scaled == nil {
		b.Fatal("no scaling construction")
	}
	b.ReportMetric(res.Verdict.Scaled.FactorAtPerf, "scale-factor")
	b.ReportMetric(res.Verdict.Scaled.AtMatchedPerf.Cost.Value, "scaled-watts-at-perf")
}

// BenchmarkExampleSmartNICFirewall regenerates the §4.2 worked example
// (experiment E6).
func BenchmarkExampleSmartNICFirewall(b *testing.B) {
	var res SmartNICResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunSmartNIC(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline1.ThroughputGbps, "baseline1-gbps")
	b.ReportMetric(res.Baseline2.ThroughputGbps, "baseline2-gbps")
	b.ReportMetric(res.Proposed.ThroughputGbps, "smartnic-gbps")
	b.ReportMetric(res.Proposed.PowerWatts, "smartnic-watts")
	if res.VerdictVs2.Conclusion != core.ProposedSuperior {
		b.Fatalf("paper conclusion not reproduced: %v", res.VerdictVs2.Conclusion)
	}
}

// BenchmarkExampleSwitchIdealScaling regenerates the §4.2.1 worked
// example (experiment E7).
func BenchmarkExampleSwitchIdealScaling(b *testing.B) {
	var res SwitchScalingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunSwitchScaling(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline.ThroughputGbps, "baseline-gbps")
	b.ReportMetric(res.Proposed.ThroughputGbps, "switch-gbps")
	b.ReportMetric(res.Baseline.PowerWatts, "baseline-watts")
	b.ReportMetric(res.Proposed.PowerWatts, "switch-watts")
	if res.Verdict.Conclusion != core.ProposedSuperior {
		b.Fatalf("paper conclusion not reproduced: %v", res.Verdict.Conclusion)
	}
}

// BenchmarkExampleNonScalableLatency regenerates the §4.3 examples
// (experiment E8).
func BenchmarkExampleNonScalableLatency(b *testing.B) {
	var res LatencyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunLatency(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FPGASystem.LatencyP99Us, "fpga-p99-us")
	b.ReportMetric(res.BigHost.LatencyP99Us, "bighost-p99-us")
	b.ReportMetric(res.SmallHost.LatencyP99Us, "smallhost-p99-us")
	if res.VerdictComparable.Conclusion != core.ProposedSuperior ||
		res.VerdictIncomparable.Conclusion != core.IncomparableSystems {
		b.Fatalf("paper conclusions not reproduced: %v / %v",
			res.VerdictComparable.Conclusion, res.VerdictIncomparable.Conclusion)
	}
}

// BenchmarkPitfallAblations exercises the §4.2.1 pitfall guard rails
// (experiment E9).
func BenchmarkPitfallAblations(b *testing.B) {
	var res PitfallResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunPitfalls()
		if err != nil {
			b.Fatal(err)
		}
	}
	guards := 0
	if res.ScaleProposedErr != nil {
		guards++
	}
	if len(res.CoverageWarnings) > 0 {
		guards++
	}
	if res.NonScalableErr != nil {
		guards++
	}
	b.ReportMetric(float64(guards), "guards-tripped")
}

// BenchmarkFrontierSweep measures the extension experiment: the full
// design-space sweep and Pareto-frontier computation.
func BenchmarkFrontierSweep(b *testing.B) {
	var res FrontierResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunFrontier(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Frontier)), "frontier-systems")
	b.ReportMetric(float64(len(res.Dominated)), "dominated-systems")
}

// BenchmarkOperatingCurves measures the extension experiment tracing
// average-power/energy-per-bit operating curves.
func BenchmarkOperatingCurves(b *testing.B) {
	var res OperatingCurvesResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunOperatingCurves(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Proposed.Points[len(res.Proposed.Points)-1]
	b.ReportMetric(last.EnergyPerBitNJ, "smartnic-nj-per-bit")
	b.ReportMetric(last.AvgPowerWatts, "smartnic-avg-watts")
}

// BenchmarkStatefulAblation measures the stateless-vs-conntrack
// firewall ablation (extension; a software instance of Figure 1a).
func BenchmarkStatefulAblation(b *testing.B) {
	var res StatefulAblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunStatefulAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup, "stateful-speedup")
}

// BenchmarkBurstSensitivity measures the arrival-process sensitivity
// extension experiment.
func BenchmarkBurstSensitivity(b *testing.B) {
	var res BurstResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunBurstSensitivity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, p := range res.Points {
		if p.LatencyP99Us > worst {
			worst = p.LatencyP99Us
		}
	}
	b.ReportMetric(worst, "worst-p99-us")
}

// BenchmarkRFC2544Throughput runs the measurement methodology suite
// (experiment E11).
func BenchmarkRFC2544Throughput(b *testing.B) {
	var res RFC2544Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunRFC2544(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Throughput.Pps/1e6, "throughput-mpps")
	b.ReportMetric(res.Throughput.Gbps, "throughput-gbps")
	b.ReportMetric(float64(res.BackToBack), "burst-pkts")
}
