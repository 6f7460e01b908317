package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fairbench/internal/metric"
	"fairbench/internal/stats"
)

func robustSystems() (System, System) {
	proposed := System{
		Name:     "proposed",
		Point:    Pt(metric.Q(20, metric.GigabitPerSecond), metric.Q(70, metric.Watt)),
		Scalable: true,
	}
	baseline := System{
		Name:     "baseline",
		Point:    Pt(metric.Q(15, metric.GigabitPerSecond), metric.Q(80, metric.Watt)),
		Scalable: true,
	}
	return proposed, baseline
}

func TestEvaluateReplicatedZeroVariance(t *testing.T) {
	e := mustEvaluator(t, DefaultPlane())
	p, b := robustSystems()
	ps := PointSamples{Perf: []float64{20, 20, 20, 20, 20}, Cost: []float64{70, 70, 70, 70, 70}}
	bs := PointSamples{Perf: []float64{15, 15, 15, 15, 15}, Cost: []float64{80, 80, 80, 80, 80}}
	rv, err := e.EvaluateReplicated(p, b, ps, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Conclusion != ProposedSuperior {
		t.Errorf("nominal conclusion = %v, want ProposedSuperior", rv.Conclusion)
	}
	if rv.Confidence != 1.0 {
		t.Errorf("zero-variance confidence = %v, want exactly 1.0", rv.Confidence)
	}
	if len(rv.Flips) != 0 {
		t.Errorf("zero-variance flips = %v, want none", rv.Flips)
	}
	for _, a := range []AxisSummary{rv.ProposedPerf, rv.ProposedCost, rv.BaselinePerf, rv.BaselineCost} {
		if a.CI.HalfWidth() != 0 {
			t.Errorf("zero-variance CI half-width = %v, want 0", a.CI.HalfWidth())
		}
		if a.CV != 0 {
			t.Errorf("zero-variance CV = %v, want 0", a.CV)
		}
	}
}

func TestEvaluateReplicatedConfidenceBounds(t *testing.T) {
	e := mustEvaluator(t, DefaultPlane())
	p, b := robustSystems()
	// Noisy replicates straddling the baseline: confidence must stay a
	// valid fraction and the distribution must account for every
	// resample.
	ps := PointSamples{Perf: []float64{20, 14, 22, 13, 21}, Cost: []float64{70, 85, 72, 88, 69}}
	bs := PointSamples{Perf: []float64{15, 19, 14, 21, 16}, Cost: []float64{80, 71, 82, 68, 79}}
	rv, err := e.EvaluateReplicated(p, b, ps, bs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Confidence < 0 || rv.Confidence > 1 {
		t.Errorf("confidence %v outside [0, 1]", rv.Confidence)
	}
	total := 0
	for _, n := range rv.Distribution {
		total += n
	}
	if total != stats.Resamples {
		t.Errorf("distribution sums to %d, want %d", total, stats.Resamples)
	}
	if rv.Distribution[rv.Conclusion] != int(rv.Confidence*stats.Resamples+0.5) {
		t.Errorf("confidence %v inconsistent with distribution %v", rv.Confidence, rv.Distribution)
	}
	// Flips exclude the nominal conclusion and are counted in the
	// distribution.
	for _, f := range rv.Flips {
		if f == rv.Conclusion {
			t.Error("flip set contains the nominal conclusion")
		}
		if rv.Distribution[f] == 0 {
			t.Errorf("flip %v has zero count", f)
		}
	}
	if rv.Sensitivity.Evaluations == 0 {
		t.Error("sensitivity grid did not run")
	}
}

func TestEvaluateReplicatedDeterminism(t *testing.T) {
	e := mustEvaluator(t, DefaultPlane())
	p, b := robustSystems()
	ps := PointSamples{Perf: []float64{20, 18, 22}, Cost: []float64{70, 74, 68}}
	bs := PointSamples{Perf: []float64{15, 16, 14}, Cost: []float64{80, 78, 83}}
	a, err := e.EvaluateReplicated(p, b, ps, bs, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.EvaluateReplicated(p, b, ps, bs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("same seed must reproduce the RobustVerdict exactly")
	}
	// With noisy, overlapping replicates the resampling stream matters,
	// so a different seed must change the bootstrap outcome.
	noisyP := PointSamples{Perf: []float64{20, 14, 22, 13, 21}, Cost: []float64{70, 85, 72, 88, 69}}
	noisyB := PointSamples{Perf: []float64{15, 19, 14, 21, 16}, Cost: []float64{80, 71, 82, 68, 79}}
	d1, err := e.EvaluateReplicated(p, b, noisyP, noisyB, 9)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.EvaluateReplicated(p, b, noisyP, noisyB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d1.Distribution, d2.Distribution) &&
		reflect.DeepEqual(d1.ProposedPerf.CI, d2.ProposedPerf.CI) {
		t.Error("different seeds should perturb the bootstrap")
	}
}

func TestEvaluateReplicatedValidation(t *testing.T) {
	e := mustEvaluator(t, DefaultPlane())
	p, b := robustSystems()
	ok := PointSamples{Perf: []float64{15}, Cost: []float64{80}}
	cases := []struct {
		name string
		ps   PointSamples
		want error
	}{
		{"empty", PointSamples{}, ErrNoReplicates},
		{"mismatched", PointSamples{Perf: []float64{1, 2}, Cost: []float64{3}}, ErrNoReplicates},
		{"nan", PointSamples{Perf: []float64{math.NaN()}, Cost: []float64{70}}, ErrNonFinitePoint},
		{"inf", PointSamples{Perf: []float64{20}, Cost: []float64{math.Inf(1)}}, ErrNonFinitePoint},
	}
	for _, c := range cases {
		if _, err := e.EvaluateReplicated(p, b, c.ps, ok, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestRelationConfidence(t *testing.T) {
	plane := DefaultPlane()
	prop := PointSamples{Perf: []float64{20, 21, 19}, Cost: []float64{70, 69, 71}}
	base := PointSamples{Perf: []float64{15, 14, 16}, Cost: []float64{80, 82, 78}}
	rs, err := RelationConfidence(plane, prop, base,
		metric.GigabitPerSecond, metric.Watt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Nominal != Dominates {
		t.Errorf("nominal relation = %v, want Dominates", rs.Nominal)
	}
	if rs.Agreement != 1.0 {
		t.Errorf("clearly separated systems: agreement = %v, want 1.0", rs.Agreement)
	}
}

func TestCompareUnderRegimesReplicated(t *testing.T) {
	plane := DefaultPlane()
	mkPt := func(g, w float64) Point {
		return Pt(metric.Q(g, metric.GigabitPerSecond), metric.Q(w, metric.Watt))
	}
	pts := []ReplicatedRegimePoint{
		{
			RegimePoint:     RegimePoint{Regime: "healthy", Proposed: mkPt(20, 70), Baseline: mkPt(15, 80)},
			ProposedSamples: PointSamples{Perf: []float64{20, 20.4, 19.6}, Cost: []float64{70, 70, 70}},
			BaselineSamples: PointSamples{Perf: []float64{15, 15.2, 14.8}, Cost: []float64{80, 80, 80}},
		},
		{
			// Outage regime: proposed collapses below the baseline.
			RegimePoint:     RegimePoint{Regime: "outage", Proposed: mkPt(5, 70), Baseline: mkPt(15, 80)},
			ProposedSamples: PointSamples{Perf: []float64{5, 5.1, 4.9}, Cost: []float64{70, 70, 70}},
			BaselineSamples: PointSamples{Perf: []float64{15, 15.1, 14.9}, Cost: []float64{80, 80, 80}},
		},
	}
	rc, err := CompareUnderRegimesReplicated(plane, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Verdicts) != 2 || len(rc.Confidence) != 2 {
		t.Fatalf("verdicts/confidence = %d/%d, want 2/2", len(rc.Verdicts), len(rc.Confidence))
	}
	if rc.Stable {
		t.Error("outage flip should break stability")
	}
	for i, c := range rc.Confidence {
		if c.Agreement < 0 || c.Agreement > 1 {
			t.Errorf("regime %d agreement %v outside [0, 1]", i, c.Agreement)
		}
	}
	if rc.Confidence[0].Nominal != Incomparable && rc.Confidence[0].Nominal != Dominates {
		t.Errorf("healthy nominal relation = %v", rc.Confidence[0].Nominal)
	}
	out := rc.Summary()
	if out == "" || rc.DegradedComparison.Summary() == out {
		t.Error("robust summary should extend the base summary with agreement")
	}
}
