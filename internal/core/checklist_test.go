package core

import (
	"strings"
	"testing"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
)

func cpuOnlySystem(name string, watts, cores float64) DesignSystem {
	return DesignSystem{
		Name: name,
		Components: []cost.Component{{
			Name: "host",
			Costs: cost.Vector{
				metric.MetricPower: metric.Q(watts, metric.Watt),
				metric.MetricCores: metric.Q(cores, metric.Core),
			},
		}},
		Scalable: true,
	}
}

func fpgaSystem(name string) DesignSystem {
	return DesignSystem{
		Name: name,
		Components: []cost.Component{
			{Name: "host", Costs: cost.Vector{
				metric.MetricPower: metric.Q(100, metric.Watt),
				metric.MetricCores: metric.Q(4, metric.Core),
			}},
			{Name: "fpga", Costs: cost.Vector{
				metric.MetricPower: metric.Q(45, metric.Watt),
				metric.MetricLUTs:  metric.Q(180000, metric.LUT),
			}},
		},
		Scalable: true,
	}
}

func findBy(findings []Finding, p PrincipleID, s Severity) []Finding {
	var out []Finding
	for _, f := range findings {
		if f.Principle == p && f.Severity == s {
			out = append(out, f)
		}
	}
	return out
}

func TestAuditCleanDesignPasses(t *testing.T) {
	r := metric.Standard()
	d := EvaluationDesign{
		CostMetrics: []metric.Descriptor{r.MustLookup(metric.MetricPower)},
		PerfMetrics: []metric.Descriptor{r.MustLookup(metric.MetricThroughputBps)},
		Systems:     []DesignSystem{cpuOnlySystem("baseline", 50, 1), fpgaSystem("proposed")},
		IdealScaling: &IdealScalingUse{
			ScaledSystem: "baseline", ProposedSystem: "proposed", MetricScalable: true,
		},
	}
	for _, f := range Audit(d) {
		if f.Severity != Pass {
			t.Fatalf("clean design: unexpected %s: %s — %s", f.Severity, f.Principle, f.Detail)
		}
	}
}

func TestAuditTCOFlagsContextDependence(t *testing.T) {
	r := metric.Standard()
	d := EvaluationDesign{
		CostMetrics: []metric.Descriptor{r.MustLookup(metric.MetricTCO)},
		Systems: []DesignSystem{{
			Name: "sys",
			Components: []cost.Component{{Name: "host",
				Costs: cost.Vector{metric.MetricTCO: metric.Q(10000, metric.USD)}}},
		}},
	}
	findings := Audit(d)
	v := findBy(findings, P1ContextIndependent, Violation)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "pricing model") {
		t.Errorf("TCO finding = %v", v)
	}
}

func TestAuditCoresFailCoverageOverFPGA(t *testing.T) {
	r := metric.Standard()
	d := EvaluationDesign{
		CostMetrics: []metric.Descriptor{r.MustLookup(metric.MetricCores)},
		Systems:     []DesignSystem{cpuOnlySystem("baseline", 50, 8), fpgaSystem("proposed")},
	}
	findings := Audit(d)
	v := findBy(findings, P3EndToEnd, Violation)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "proposed") {
		t.Errorf("coverage findings = %v", v)
	}
}

func TestAuditCrossRegimeClaims(t *testing.T) {
	r := metric.Standard()
	d := EvaluationDesign{
		CostMetrics:         []metric.Descriptor{r.MustLookup(metric.MetricPower)},
		Systems:             []DesignSystem{cpuOnlySystem("a", 50, 1)},
		ClaimsAcrossRegimes: true,
	}
	if len(findBy(Audit(d), P4Unidimensional, Violation)) != 1 {
		t.Error("cross-regime claims should violate P4")
	}
}

func TestAuditScalingPitfalls(t *testing.T) {
	r := metric.Standard()
	base := EvaluationDesign{
		CostMetrics: []metric.Descriptor{r.MustLookup(metric.MetricPower)},
		Systems:     []DesignSystem{cpuOnlySystem("baseline", 50, 1), fpgaSystem("proposed")},
	}

	// Pitfall 1: scaling the proposed system.
	d := base
	d.IdealScaling = &IdealScalingUse{ScaledSystem: "proposed", ProposedSystem: "proposed", MetricScalable: true}
	if len(findBy(Audit(d), P6IdealScaling, Violation)) != 1 {
		t.Error("scaling the proposed system should violate P6")
	}

	// Pitfall 2: half-utilized baseline.
	d = base
	half := cpuOnlySystem("baseline", 50, 1)
	half.UtilizedFraction = 0.5
	d.Systems = []DesignSystem{half, fpgaSystem("proposed")}
	d.IdealScaling = &IdealScalingUse{ScaledSystem: "baseline", ProposedSystem: "proposed", MetricScalable: true}
	w := findBy(Audit(d), P6IdealScaling, Warning)
	if len(w) != 1 || !strings.Contains(w[0].Detail, "not generous") {
		t.Errorf("coverage warning = %v", w)
	}

	// Pitfall 3: non-scalable metric or system.
	d = base
	d.IdealScaling = &IdealScalingUse{ScaledSystem: "baseline", ProposedSystem: "proposed", MetricScalable: false}
	if len(findBy(Audit(d), P7NonScalable, Violation)) != 1 {
		t.Error("non-scalable metric should violate P7")
	}
	d = base
	rigid := cpuOnlySystem("baseline", 50, 1)
	rigid.Scalable = false
	d.Systems = []DesignSystem{rigid, fpgaSystem("proposed")}
	d.IdealScaling = &IdealScalingUse{ScaledSystem: "baseline", ProposedSystem: "proposed", MetricScalable: true}
	if len(findBy(Audit(d), P7NonScalable, Violation)) != 1 {
		t.Error("non-scalable system should violate P7")
	}
}

func TestAuditMissingCostMetric(t *testing.T) {
	findings := Audit(EvaluationDesign{})
	if len(findBy(findings, P1ContextIndependent, Violation)) != 1 {
		t.Error("no-cost-metric design should be flagged")
	}
}

func TestAuditRackSpaceWarns(t *testing.T) {
	r := metric.Standard()
	d := EvaluationDesign{
		CostMetrics: []metric.Descriptor{r.MustLookup(metric.MetricRackSpace)},
		Systems: []DesignSystem{{
			Name: "sys",
			Components: []cost.Component{{Name: "host",
				Costs: cost.Vector{metric.MetricRackSpace: metric.Q(2, metric.RackUnit)}}},
		}},
	}
	findings := Audit(d)
	// Rack space is context-dependent with a qualification: warn, not
	// pass; and quantifiable: pass.
	if len(findBy(findings, P1ContextIndependent, Warning)) != 1 {
		t.Errorf("rack space should warn under P1: %v", findings)
	}
	if len(findBy(findings, P2Quantifiable, Pass)) != 1 {
		t.Error("rack space is quantifiable")
	}
}

func TestSeverityString(t *testing.T) {
	if Pass.String() != "pass" || Warning.String() != "warning" || Violation.String() != "violation" {
		t.Error("severity names")
	}
}
