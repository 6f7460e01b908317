package core

import (
	"strings"
	"testing"
)

func sensEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(DefaultPlane())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSensitivityClearWinIsStable(t *testing.T) {
	// A decisive win (much better slope) survives ±5% perturbation.
	e := sensEvaluator(t)
	res, err := SensitivityAnalysis(e,
		System{Name: "a", Point: gp(100, 100), Scalable: true},
		System{Name: "b", Point: gp(20, 100), Scalable: true},
		SensitivityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nominal != ProposedSuperior {
		t.Fatalf("nominal = %v", res.Nominal)
	}
	if res.Stability < 0.99 {
		t.Errorf("clear win stability = %v, want ≈1", res.Stability)
	}
	if res.Evaluations != 625 { // (2*2+1)^4
		t.Errorf("evaluations = %d, want 625", res.Evaluations)
	}
}

func TestSensitivityMarginalWinIsFragile(t *testing.T) {
	// Nearly identical perf/cost slopes: the ideal-scaling verdict
	// flips under small perturbations.
	e := sensEvaluator(t)
	res, err := SensitivityAnalysis(e,
		System{Name: "a", Point: gp(41, 200), Scalable: true},
		System{Name: "b", Point: gp(20, 100), Scalable: true},
		SensitivityOptions{RelError: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stability > 0.9 {
		t.Errorf("marginal win stability = %v, should be fragile", res.Stability)
	}
	if len(res.Distribution) < 2 {
		t.Errorf("distribution = %v, want multiple conclusions", res.Distribution)
	}
}

func TestSensitivityOptionsValidation(t *testing.T) {
	e := sensEvaluator(t)
	a := System{Name: "a", Point: gp(10, 10), Scalable: true}
	b := System{Name: "b", Point: gp(5, 5), Scalable: true}
	if _, err := SensitivityAnalysis(e, a, b, SensitivityOptions{RelError: 1.5}); err == nil {
		t.Error("RelError >= 1 should fail")
	}
	if _, err := SensitivityAnalysis(e, a, b, SensitivityOptions{Steps: 10}); err == nil {
		t.Error("excessive steps should fail")
	}
}

func TestSensitivityString(t *testing.T) {
	r := SensitivityResult{Nominal: ProposedSuperior, Stability: 0.94, Evaluations: 625}
	s := r.String()
	if !strings.Contains(s, "94%") || !strings.Contains(s, "625") {
		t.Errorf("String = %q", s)
	}
}

func TestSensitivityDistributionSums(t *testing.T) {
	e := sensEvaluator(t)
	res, err := SensitivityAnalysis(e,
		System{Name: "a", Point: gp(50, 120), Scalable: true},
		System{Name: "b", Point: gp(30, 80), Scalable: true},
		SensitivityOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Distribution {
		total += n
	}
	if total != res.Evaluations || total != 81 { // 3^4
		t.Errorf("distribution sums to %d, evaluations %d", total, res.Evaluations)
	}
}
