package core

import (
	"strings"
	"testing"

	"fairbench/internal/metric"
)

func mustEvaluator(t *testing.T, p Plane, opts ...Option) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func hasPrinciple(v Verdict, id PrincipleID) bool {
	for _, p := range v.Applied {
		if p == id {
			return true
		}
	}
	return false
}

func TestEvaluateSmartNICFirewallExample(t *testing.T) {
	// §4.2 worked example. Baseline (regular NIC, 1 core): 10 Gb/s @
	// 50 W. Proposed (SmartNIC): 20 Gb/s @ 70 W. Incomparable as
	// measured. Scaled baseline (2 cores): 18 Gb/s @ 80 W — now in the
	// proposed system's comparison region and dominated, so the
	// proposed system is better at this performance-cost target.
	e := mustEvaluator(t, DefaultPlane())
	proposed := System{Name: "fw-smartnic", Point: gp(20, 70), Scalable: true}
	baseline1 := System{Name: "fw-1core", Point: gp(10, 50), Scalable: true}

	v, err := e.Evaluate(proposed, baseline1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Direct != Incomparable {
		t.Errorf("unscaled relation = %v, want Incomparable (better perf, worse cost)", v.Direct)
	}
	if !hasPrinciple(v, P5ScaleBaseline) || !hasPrinciple(v, P6IdealScaling) {
		t.Errorf("principles applied = %v, want P5 and P6", v.Applied)
	}

	// The measured scaled baseline (2 cores): in-region comparison.
	baseline2 := System{Name: "fw-2core", Point: gp(18, 80), Scalable: true}
	v2, err := e.Evaluate(proposed, baseline2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Direct != Dominates || v2.Conclusion != ProposedSuperior {
		t.Errorf("proposed vs 2-core baseline: rel=%v conclusion=%v, want Dominates/ProposedSuperior",
			v2.Direct, v2.Conclusion)
	}
}

func TestEvaluateSwitchIdealScalingExample(t *testing.T) {
	// §4.2.1 worked example: proposed (switch + all host cores)
	// 100 Gb/s @ 200 W; baseline (all host cores) 35 Gb/s @ 100 W.
	// Under ideal scaling the proposed system wins.
	e := mustEvaluator(t, DefaultPlane())
	proposed := System{Name: "fw-switch", Point: gp(100, 200), Scalable: true}
	baseline := System{Name: "fw-host", Point: gp(35, 100), Scalable: true}

	v, err := e.Evaluate(proposed, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conclusion != ProposedSuperior {
		t.Fatalf("conclusion = %v, want ProposedSuperior", v.Conclusion)
	}
	if v.Scaled == nil {
		t.Fatal("verdict should carry the scaling construction")
	}
	if got := v.Scaled.AtMatchedCost.Perf.Value; got != 70 {
		t.Errorf("baseline at matched cost = %v Gb/s, want 70", got)
	}
	if got := v.Scaled.AtMatchedPerf.Cost.Value; got < 285 || got > 286 {
		t.Errorf("baseline at matched perf = %v W, want ≈285.7 (the paper's 286)", got)
	}
	joined := strings.Join(v.Claims, "\n")
	if !strings.Contains(joined, "ideal") {
		t.Errorf("claims should mention ideal scaling: %v", v.Claims)
	}
}

func TestEvaluateNonScalableLatencyComparable(t *testing.T) {
	// §4.3 first scenario: proposed 5 µs @ 100 W vs baseline 10 µs @
	// 300 W — baseline is in the comparison region; proposed superior.
	e := mustEvaluator(t, LatencyPlane())
	proposed := System{Name: "lowlat-a", Point: lp(5, 100), Scalable: false}
	baseline := System{Name: "lowlat-b", Point: lp(10, 300), Scalable: false}

	v, err := e.Evaluate(proposed, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conclusion != ProposedSuperior {
		t.Errorf("conclusion = %v, want ProposedSuperior", v.Conclusion)
	}
	if !hasPrinciple(v, P7NonScalable) {
		t.Errorf("P7 should be cited for non-scalable comparison: %v", v.Applied)
	}
	if v.Scaled != nil {
		t.Error("no scaling may be applied to non-scalable systems")
	}
}

func TestEvaluateNonScalableLatencyIncomparable(t *testing.T) {
	// §4.3 second scenario: proposed 5 µs @ 200 W vs baseline 8 µs @
	// 100 W — fundamentally incomparable; report both.
	e := mustEvaluator(t, LatencyPlane())
	proposed := System{Name: "lowlat-a", Point: lp(5, 200), Scalable: false}
	baseline := System{Name: "lowlat-b", Point: lp(8, 100), Scalable: false}

	v, err := e.Evaluate(proposed, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conclusion != IncomparableSystems {
		t.Errorf("conclusion = %v, want IncomparableSystems", v.Conclusion)
	}
	if v.Scaled != nil {
		t.Error("latency must not be ideally scaled")
	}
	joined := strings.Join(v.Claims, "\n")
	if !strings.Contains(joined, "report both") {
		t.Errorf("claims should advise reporting both metrics: %v", v.Claims)
	}
}

func TestEvaluateSameRegimeUnidimensional(t *testing.T) {
	// Principle 4: same-cost systems compare on performance alone.
	e := mustEvaluator(t, DefaultPlane())
	v, err := e.Evaluate(
		System{Name: "new", Point: gp(15, 50), Scalable: true},
		System{Name: "old", Point: gp(10, 50), Scalable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPrinciple(v, P4Unidimensional) {
		t.Errorf("P4 should apply: %v", v.Applied)
	}
	if v.Conclusion != ProposedSuperior {
		t.Errorf("conclusion = %v", v.Conclusion)
	}
	if v.Regime != SameCost {
		t.Errorf("regime = %v", v.Regime)
	}
}

func TestEvaluateProposedLosesAfterScaling(t *testing.T) {
	// The honest outcome the methodology exists to surface: a proposed
	// accelerated system whose perf/W is below the baseline's loses
	// once the baseline is ideally scaled.
	e := mustEvaluator(t, DefaultPlane())
	v, err := e.Evaluate(
		System{Name: "accel", Point: gp(40, 200), Scalable: true},
		System{Name: "cpu", Point: gp(30, 100), Scalable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conclusion != BaselineSuperior {
		t.Errorf("conclusion = %v, want BaselineSuperior", v.Conclusion)
	}
	joined := strings.Join(v.Claims, "\n")
	if !strings.Contains(joined, "not a win") {
		t.Errorf("claims should state the proposed system is not a win: %v", v.Claims)
	}
}

func TestEvaluateOnScalingLineIsTie(t *testing.T) {
	// A proposed point exactly on the baseline's ideal-scaling line.
	e := mustEvaluator(t, DefaultPlane())
	v, err := e.Evaluate(
		System{Name: "a", Point: gp(70, 200), Scalable: true},
		System{Name: "b", Point: gp(35, 100), Scalable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conclusion != Tie {
		t.Errorf("conclusion = %v, want Tie", v.Conclusion)
	}
}

func TestEvaluateCoverageWarning(t *testing.T) {
	// §4.2.1 pitfall 2: baseline only uses half the server it is
	// costed at.
	e := mustEvaluator(t, DefaultPlane())
	v, err := e.Evaluate(
		System{Name: "accel", Point: gp(100, 200), Scalable: true},
		System{Name: "half-used", Point: gp(35, 100), Scalable: true, UtilizedFraction: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range v.Warnings {
		if strings.Contains(w, "not generous") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v, want coverage pitfall warning", v.Warnings)
	}
}

func TestEvaluatorRejectsUnsuitableCostMetric(t *testing.T) {
	// A plane whose cost metric is CPU cores (fails Principle 3) must
	// be rejected.
	r := metric.Standard()
	coresPlane := Plane{
		Perf: AxisFor(r.MustLookup(metric.MetricThroughputBps)),
		Cost: AxisFor(r.MustLookup(metric.MetricCores)),
	}
	if _, err := NewEvaluator(coresPlane); err == nil {
		t.Fatal("evaluator over cores-cost plane should be rejected")
	}
}

func TestEvaluateAgainstAll(t *testing.T) {
	e := mustEvaluator(t, DefaultPlane())
	proposed := System{Name: "p", Point: gp(100, 200), Scalable: true}
	baselines := []System{
		{Name: "b1", Point: gp(35, 100), Scalable: true},
		{Name: "b2", Point: gp(50, 300), Scalable: true},
		{Name: "b3", Point: gp(100, 200), Scalable: true},
	}
	vs, err := e.EvaluateAgainstAll(proposed, baselines)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d verdicts", len(vs))
	}
	if vs[0].Conclusion != ProposedSuperior {
		t.Errorf("vs b1: %v", vs[0].Conclusion)
	}
	if vs[1].Conclusion != ProposedSuperior {
		t.Errorf("vs b2 (dominated directly): %v", vs[1].Conclusion)
	}
	if vs[2].Conclusion != Tie {
		t.Errorf("vs b3 (identical): %v", vs[2].Conclusion)
	}
}

func TestEvaluatorOptions(t *testing.T) {
	if _, err := NewEvaluator(DefaultPlane(), WithTolerance(-1)); err == nil {
		t.Error("negative tolerance should be rejected")
	}
	e := mustEvaluator(t, DefaultPlane(), WithTolerance(0.5))
	// With a huge tolerance, quite different points land in one regime.
	v, err := e.Evaluate(
		System{Name: "a", Point: gp(10, 60), Scalable: true},
		System{Name: "b", Point: gp(12, 80), Scalable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Regime.Unidimensional() {
		t.Errorf("regime with 50%% tolerance = %v", v.Regime)
	}
}

func TestPrincipleText(t *testing.T) {
	for _, p := range []PrincipleID{
		P1ContextIndependent, P2Quantifiable, P3EndToEnd,
		P4Unidimensional, P5ScaleBaseline, P6IdealScaling, P7NonScalable,
	} {
		if p.Text() == "" || strings.HasPrefix(p.Text(), "unknown") {
			t.Errorf("%v has no text", p)
		}
	}
	if !strings.Contains(P6IdealScaling.Text(), "ideally scaling") {
		t.Errorf("P6 text = %q", P6IdealScaling.Text())
	}
	if PrincipleID(42).Text() == P1ContextIndependent.Text() {
		t.Error("unknown principle should not alias P1")
	}
	if P5ScaleBaseline.String() != "Principle 5" {
		t.Errorf("String = %q", P5ScaleBaseline.String())
	}
}

func TestConclusionString(t *testing.T) {
	cases := map[Conclusion]string{
		ProposedSuperior:    "proposed-superior",
		BaselineSuperior:    "baseline-superior",
		Tie:                 "tie",
		IncomparableSystems: "incomparable",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}
