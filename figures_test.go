package fairbench

import (
	"strings"
	"testing"

	"fairbench/internal/core"
	"fairbench/internal/cost"
	"fairbench/internal/nf"
	"fairbench/internal/testbed"
)

// Synthetic experiment results for render-only tests (no simulation).

func synthMeasured(name string, gbps, watts float64) MeasuredSystem {
	return MeasuredSystem{Name: name, ThroughputGbps: gbps, PowerWatts: watts,
		LatencyP50Us: 5, LatencyP99Us: 12}
}

func synthReplicated(name string, gbps, watts float64) ReplicatedSystem {
	m := synthMeasured(name, gbps, watts)
	return ReplicatedSystem{MeasuredSystem: m, Trials: []MeasuredSystem{m}, Seeds: []uint64{1}}
}

func synthVerdict(t *testing.T, pGbps, pW, bGbps, bW float64) Verdict {
	t.Helper()
	v, err := CompareThroughputPower(
		SystemPoint{Name: "p", Gbps: pGbps, Watts: pW, Scalable: true},
		SystemPoint{Name: "b", Gbps: bGbps, Watts: bW, Scalable: true})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFigure1Plots(t *testing.T) {
	f := Figure1Result{
		OldSameCost: synthReplicated("old", 9.3, 50),
		NewSameCost: synthReplicated("new", 11.8, 50),
		TargetGbps:  11.8,
		OldSamePerf: synthReplicated("old-2core", 11.8, 80),
		NewSamePerf: synthReplicated("new", 11.8, 50),
	}
	f.VerdictSameCost = synthVerdict(t, 11.8, 50, 9.3, 50)
	f.VerdictSamePerf = synthVerdict(t, 11.8, 50, 11.8, 80)

	a := Figure1aPlot(f).SVG()
	if !strings.Contains(a, "Figure 1a") || strings.Count(a, "<circle") != 2 {
		t.Errorf("figure 1a SVG wrong")
	}
	b := Figure1bPlot(f).SVG()
	if !strings.Contains(b, "Figure 1b") {
		t.Error("figure 1b SVG wrong")
	}
	rep := Figure1Report(f)
	for _, frag := range []string{"1a same-cost", "1b same-perf", "equal cost", "equal performance"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("figure 1 report missing %q", frag)
		}
	}
}

func TestFigure2Rendering(t *testing.T) {
	f := Figure2Result{
		Reference: synthReplicated("ref", 20, 70),
		Grid: []Figure2Cell{
			{Gbps: 10, Watts: 50, Class: core.OutsideCheaperWorse},
			{Gbps: 30, Watts: 60, Class: core.InRegionDominates},
		},
	}
	svg := Figure2Plot(f).SVG()
	if !strings.Contains(svg, "comparison region of ref") || !strings.Contains(svg, "<rect") {
		t.Error("figure 2 SVG should shade the region")
	}
	tab := Figure2Table(f)
	if len(tab.Rows) != 2 {
		t.Errorf("figure 2 table rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Text(), "outside:cheaper-but-worse") {
		t.Error("figure 2 table missing class names")
	}
}

func TestFigure3PlotIncludesScaledPoints(t *testing.T) {
	res := SwitchScalingResult{
		Proposed: synthReplicated("switch", 100, 200),
		Baseline: synthReplicated("host", 35, 100),
		Verdict:  synthVerdict(t, 100, 200, 35, 100),
	}
	svg := Figure3Plot(res).SVG()
	if strings.Count(svg, "<circle") != 4 {
		t.Errorf("figure 3 should plot A, B and the two scaled points; circles = %d",
			strings.Count(svg, "<circle"))
	}
	if !strings.Contains(svg, "ideal scaling") {
		t.Error("figure 3 should draw the scaling ray")
	}
	rep := SwitchScalingReport(res)
	for _, frag := range []string{"matched cost", "matched perf", "2.86x"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("switch report missing %q:\n%s", frag, rep)
		}
	}
}

func TestSmartNICAndLatencyReports(t *testing.T) {
	e6 := SmartNICResult{
		Baseline1:  synthReplicated("b1", 10, 50),
		Baseline2:  synthReplicated("b2", 18, 80),
		Proposed:   synthReplicated("p", 20, 70),
		VerdictVs1: synthVerdict(t, 20, 70, 10, 50),
		VerdictVs2: synthVerdict(t, 20, 70, 18, 80),
	}
	rep := SmartNICReport(e6)
	if !strings.Contains(rep, "p99 latency") || !strings.Contains(rep, "Pareto-dominates") {
		t.Errorf("smartnic report:\n%s", rep)
	}

	lv1, err := CompareLatencyPower(
		SystemPoint{Name: "fpga", LatencyUs: 1, Watts: 65},
		SystemPoint{Name: "big", LatencyUs: 5, Watts: 260})
	if err != nil {
		t.Fatal(err)
	}
	lv2, err := CompareLatencyPower(
		SystemPoint{Name: "fpga", LatencyUs: 1, Watts: 65},
		SystemPoint{Name: "small", LatencyUs: 6, Watts: 50})
	if err != nil {
		t.Fatal(err)
	}
	e8 := LatencyResult{
		FPGASystem:          synthReplicated("fpga", 5, 65),
		BigHost:             synthReplicated("big", 5, 260),
		SmallHost:           synthReplicated("small", 3, 50),
		VerdictComparable:   lv1,
		VerdictIncomparable: lv2,
	}
	lrep := LatencyReport(e8)
	if !strings.Contains(lrep, "fundamentally incomparable") {
		t.Errorf("latency report:\n%s", lrep)
	}
}

func TestPitfallReportRendering(t *testing.T) {
	res, err := RunPitfalls()
	if err != nil {
		t.Fatal(err)
	}
	rep := PitfallReport(res)
	for _, frag := range []string{"Pitfall", "refused", "warned"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("pitfall report missing %q:\n%s", frag, rep)
		}
	}
}

func TestPricingReleaseValid(t *testing.T) {
	rel, err := PricingRelease()
	if err != nil {
		t.Fatal(err)
	}
	model, boms, err := cost.UnmarshalRelease(rel)
	if err != nil {
		t.Fatal(err)
	}
	if model != cost.DefaultPricingModel {
		t.Errorf("model = %+v", model)
	}
	if len(boms) != 4 {
		t.Fatalf("BOMs = %d", len(boms))
	}
	// Power in the release matches the simulated scenario calibration.
	powers := map[string]float64{}
	for _, b := range boms {
		powers[b.System] = b.TotalPowerWatts()
	}
	want := map[string]float64{
		"fw-host-1core": 50, "fw-host-2core": 80, "fw-smartnic": 70, "fw-switch": 200,
	}
	for name, w := range want {
		if powers[name] != w {
			t.Errorf("%s BOM power = %v, want %v", name, powers[name], w)
		}
	}
}

func TestExpandRanges(t *testing.T) {
	rules := testbedRulesForExpansion()
	out := expandRanges(rules)
	// The 100-port range becomes 100 exact rules; the others stay.
	if len(out) != len(rules)-1+100 {
		t.Errorf("expanded rules = %d, want %d", len(out), len(rules)-1+100)
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, r := range out {
		if seen[r.ID] {
			t.Fatalf("duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = true
		if !r.SrcPorts.Any() && r.SrcPorts.Lo != r.SrcPorts.Hi {
			t.Fatalf("range survived expansion: %+v", r)
		}
		if !r.DstPorts.Any() && r.DstPorts.Lo != r.DstPorts.Hi {
			t.Fatalf("range survived expansion: %+v", r)
		}
	}
}

// testbedRulesForExpansion returns the canonical rules (which include
// one 100-port range rule) for the expansion test.
func testbedRulesForExpansion() []nf.Rule {
	return testbed.FirewallRules(testbed.DefaultFillerRules)
}
