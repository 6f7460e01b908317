package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"fairbench/internal/metric"
)

func regimePt(g, w float64) Point {
	return Pt(metric.Q(g, metric.GigabitPerSecond), metric.Q(w, metric.Watt))
}

func TestCompareUnderRegimesStable(t *testing.T) {
	p := DefaultPlane()
	d, err := CompareUnderRegimes(p, []RegimePoint{
		{Regime: "healthy", Proposed: regimePt(20, 70), Baseline: regimePt(10, 80)},
		{Regime: "brownout", Proposed: regimePt(12, 70), Baseline: regimePt(6, 80)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stable || len(d.Flips) != 0 {
		t.Errorf("expected stable verdict, got stable=%v flips=%v", d.Stable, d.Flips)
	}
	for _, v := range d.Verdicts {
		if v.Relation != Dominates {
			t.Errorf("regime %s relation = %v, want Dominates", v.Regime, v.Relation)
		}
	}
	if !strings.Contains(d.Summary(), "stable") {
		t.Errorf("summary %q does not mention stability", d.Summary())
	}
}

func TestCompareUnderRegimesFlips(t *testing.T) {
	p := DefaultPlane()
	d, err := CompareUnderRegimes(p, []RegimePoint{
		{Regime: "healthy", Proposed: regimePt(20, 70), Baseline: regimePt(10, 80)},
		// Under the outage the proposed system collapses below the
		// baseline on performance while remaining cheaper: incomparable.
		{Regime: "smartnic-outage", Proposed: regimePt(4, 70), Baseline: regimePt(10, 80)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stable {
		t.Fatal("verdict flip not detected")
	}
	if len(d.Flips) != 1 || d.Flips[0] != "smartnic-outage" {
		t.Errorf("flips = %v, want [smartnic-outage]", d.Flips)
	}
	if d.Verdicts[1].Relation != Incomparable {
		t.Errorf("outage relation = %v, want Incomparable", d.Verdicts[1].Relation)
	}
	if !strings.Contains(d.Summary(), "NOT stable") {
		t.Errorf("summary %q does not flag instability", d.Summary())
	}
}

func TestCompareUnderRegimesRejectsNonFinite(t *testing.T) {
	p := DefaultPlane()
	for _, bad := range []Point{
		regimePt(math.NaN(), 70),
		regimePt(20, math.Inf(1)),
	} {
		_, err := CompareUnderRegimes(p, []RegimePoint{
			{Regime: "healthy", Proposed: regimePt(20, 70), Baseline: regimePt(10, 80)},
			{Regime: "fully-dropped", Proposed: bad, Baseline: regimePt(10, 80)},
		})
		if err == nil {
			t.Errorf("non-finite point %v accepted", bad)
			continue
		}
		if !errors.Is(err, ErrNonFinitePoint) {
			t.Errorf("error %v does not wrap ErrNonFinitePoint", err)
		}
	}
}

func TestCompareUnderRegimesEmpty(t *testing.T) {
	if _, err := CompareUnderRegimes(DefaultPlane(), nil); err == nil {
		t.Error("no regimes accepted")
	}
}

func TestPointValidateNonFinite(t *testing.T) {
	p := DefaultPlane()
	for _, pt := range []Point{
		regimePt(math.NaN(), 70),
		regimePt(20, math.NaN()),
		regimePt(math.Inf(-1), 70),
	} {
		err := pt.Validate(p)
		if err == nil {
			t.Errorf("Validate(%v) accepted a non-finite point", pt)
			continue
		}
		if !errors.Is(err, ErrNonFinitePoint) {
			t.Errorf("Validate(%v) error %v does not wrap ErrNonFinitePoint", pt, err)
		}
	}
	if err := regimePt(20, 70).Validate(p); err != nil {
		t.Errorf("finite point rejected: %v", err)
	}
}

func TestCompareRejectsNonFinite(t *testing.T) {
	p := DefaultPlane()
	if _, err := Compare(p, regimePt(math.NaN(), 70), regimePt(10, 80), DefaultTolerance); !errors.Is(err, ErrNonFinitePoint) {
		t.Errorf("Compare with NaN perf: err = %v, want ErrNonFinitePoint", err)
	}
}
