package fairbench

import (
	"fmt"

	"fairbench/internal/core"
	"fairbench/internal/report"
	"fairbench/internal/rfc2544"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// Operating-curve experiment (extension): the paper's examples use
// provisioned power — the context-independent figure a deployment is
// built for. Average power varies with load, so the performance-cost
// point of a system moves along an operating curve. This experiment
// traces that curve for two deployments and reports the derived
// energy-per-bit cost metric (registered in the standard registry), the
// kind of "new cost metric" the paper's §5 invites the community to
// develop.

// OperatingPoint is one load level of a deployment's operating curve.
type OperatingPoint struct {
	LoadFraction     float64
	OfferedPps       float64
	ProcessedGbps    float64
	AvgPowerWatts    float64
	ProvisionedWatts float64
	LatencyP99Us     float64
	// EnergyPerBitNJ is average power divided by processed bit rate,
	// in nanojoules per bit.
	EnergyPerBitNJ float64
}

// OperatingCurve is a deployment's measured curve.
type OperatingCurve struct {
	System string
	Points []OperatingPoint
}

// OperatingCurvesResult compares two deployments' curves.
type OperatingCurvesResult struct {
	Baseline OperatingCurve
	Proposed OperatingCurve
}

// RunOperatingCurves measures the 1-core baseline and SmartNIC firewall
// across load fractions of their respective capacities.
func RunOperatingCurves(o ExpOptions) (OperatingCurvesResult, error) {
	o = o.withDefaults()
	gen := func() (*workload.Generator, error) { return testbed.E6Workload(o.Seed) }
	fractions := []float64{0.1, 0.25, 0.5, 0.75, 0.9}

	curve := func(name string, mk rfc2544.DUTFactory, maxPps float64) (OperatingCurve, error) {
		out := OperatingCurve{System: name}
		cap, err := rfc2544.Throughput(mk, gen, o.searchOpts(maxPps))
		if err != nil {
			return out, err
		}
		if cap.Pps == 0 {
			return out, fmt.Errorf("operating curve: %s has no sustainable rate", name)
		}
		for _, f := range fractions {
			d, err := mk()
			if err != nil {
				return out, err
			}
			g, err := gen()
			if err != nil {
				return out, err
			}
			res, err := d.Run(g, workload.CBR{}, cap.Pps*f, o.TrialSeconds)
			if err != nil {
				return out, err
			}
			pt := OperatingPoint{
				LoadFraction:     f,
				OfferedPps:       cap.Pps * f,
				ProcessedGbps:    res.Processed.GbPerSecond(),
				AvgPowerWatts:    res.AvgPowerWatts,
				ProvisionedWatts: res.ProvisionedPowerWatts,
				LatencyP99Us:     res.LatencyP99Us,
			}
			if bps := res.Processed.BitsPerSecond(); bps > 0 {
				pt.EnergyPerBitNJ = res.AvgPowerWatts / bps * 1e9
			}
			out.Points = append(out.Points, pt)
		}
		return out, nil
	}

	var res OperatingCurvesResult
	var err error
	res.Baseline, err = curve("fw-host-1core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }, 16e6)
	if err != nil {
		return res, err
	}
	res.Proposed, err = curve("fw-smartnic",
		func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() }, 24e6)
	return res, err
}

// OperatingCurveReport renders both curves.
func OperatingCurveReport(r OperatingCurvesResult) string {
	t := report.NewTable("Operating curves: average power and energy-per-bit vs load",
		"System", "Load", "Processed (Gb/s)", "Avg power (W)", "Provisioned (W)", "nJ/bit", "p99 (µs)")
	for _, c := range []OperatingCurve{r.Baseline, r.Proposed} {
		for _, p := range c.Points {
			t.AddRowf("%s|%.0f%%|%.2f|%.1f|%.0f|%.3f|%.2f",
				c.System, p.LoadFraction*100, p.ProcessedGbps, p.AvgPowerWatts,
				p.ProvisionedWatts, p.EnergyPerBitNJ, p.LatencyP99Us)
		}
	}
	return t.Text()
}

// OperatingCurveCSV renders both curves as CSV.
func OperatingCurveCSV(r OperatingCurvesResult) string {
	t := report.NewTable("", "system", "load_fraction", "offered_pps", "processed_gbps", "avg_watts", "provisioned_watts", "nj_per_bit", "p99_us")
	for _, c := range []OperatingCurve{r.Baseline, r.Proposed} {
		for _, p := range c.Points {
			t.AddRowf("%s|%.2f|%.0f|%.4f|%.3f|%.0f|%.4f|%.3f",
				c.System, p.LoadFraction, p.OfferedPps, p.ProcessedGbps,
				p.AvgPowerWatts, p.ProvisionedWatts, p.EnergyPerBitNJ, p.LatencyP99Us)
		}
	}
	return t.CSV()
}

// SensitivityReport runs the measurement-uncertainty analysis on the
// §4.2 example's measured systems and renders it (extension; see
// core.SensitivityAnalysis).
func SensitivityReport(e6 SmartNICResult, relError float64) (string, error) {
	ev, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Verdict sensitivity to ±%.0f%% measurement error", relError*100),
		"Comparison", "Nominal", "Stability", "Evaluations")
	pairs := []struct {
		name     string
		baseline MeasuredSystem
	}{
		{"fw-smartnic vs fw-host-1core", e6.Baseline1.MeasuredSystem},
		{"fw-smartnic vs fw-host-2core", e6.Baseline2.MeasuredSystem},
	}
	for _, p := range pairs {
		res, err := core.SensitivityAnalysis(ev,
			e6.Proposed.ThroughputPowerSystem(),
			p.baseline.ThroughputPowerSystem(),
			core.SensitivityOptions{RelError: relError})
		if err != nil {
			return "", err
		}
		t.AddRowf("%s|%s|%.1f%%|%d", p.name, res.Nominal, res.Stability*100, res.Evaluations)
	}
	return t.Text(), nil
}
