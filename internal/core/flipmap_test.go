package core

import (
	"testing"

	"fairbench/internal/metric"
)

func gbpsW(g, w float64) Point {
	return Pt(metric.Q(g, metric.GigabitPerSecond), metric.Q(w, metric.Watt))
}

func TestFlipMapDetectsFlip(t *testing.T) {
	p := DefaultPlane()
	pts := []ParamPoint{
		// Amply provisioned: proposed dominates (faster, cheaper).
		{Param: 65536, Proposed: gbpsW(20, 70), Baseline: gbpsW(15, 80)},
		// Still dominating at the mid point.
		{Param: 16384, Proposed: gbpsW(18, 70), Baseline: gbpsW(15, 80)},
		// Starved table: proposed loses throughput but keeps the cheaper
		// power draw — incomparable, the verdict has flipped.
		{Param: 1024, Proposed: gbpsW(8, 70), Baseline: gbpsW(15, 80)},
	}
	fm, err := FlipMapOverParam(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Reference != Dominates {
		t.Errorf("reference = %v, want Dominates", fm.Reference)
	}
	if fm.Stable() {
		t.Error("sweep reported stable despite a flip")
	}
	if len(fm.FlipParams) != 1 || fm.FlipParams[0] != 1024 {
		t.Errorf("FlipParams = %v, want [1024]", fm.FlipParams)
	}
	if !fm.Entries[2].Flipped || fm.Entries[1].Flipped || fm.Entries[0].Flipped {
		t.Errorf("flip flags = %+v", fm.Entries)
	}
	if fm.Entries[2].Relation != Incomparable {
		t.Errorf("starved relation = %v, want Incomparable", fm.Entries[2].Relation)
	}
	if fm.Entries[0].Label != "65536" {
		t.Errorf("default label = %q", fm.Entries[0].Label)
	}
}

func TestFlipMapStable(t *testing.T) {
	p := DefaultPlane()
	pts := []ParamPoint{
		{Param: 4096, Label: "4Ki", Proposed: gbpsW(20, 70), Baseline: gbpsW(15, 80)},
		{Param: 1024, Label: "1Ki", Proposed: gbpsW(19, 70), Baseline: gbpsW(15, 80)},
	}
	fm, err := FlipMapOverParam(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !fm.Stable() || len(fm.FlipParams) != 0 {
		t.Errorf("stable sweep misreported: %+v", fm)
	}
	if fm.Entries[0].Label != "4Ki" {
		t.Errorf("explicit label dropped: %q", fm.Entries[0].Label)
	}
}

func TestFlipMapErrors(t *testing.T) {
	p := DefaultPlane()
	if _, err := FlipMapOverParam(p, nil); err == nil {
		t.Error("empty sweep should fail")
	}
	bad := []ParamPoint{{Param: 1, Proposed: Pt(metric.Q(5, metric.Watt), metric.Q(70, metric.Watt)), Baseline: gbpsW(15, 80)}}
	if _, err := FlipMapOverParam(p, bad); err == nil {
		t.Error("unit-incompatible point should fail")
	}
}
