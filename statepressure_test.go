package fairbench

import (
	"strings"
	"testing"

	"fairbench/internal/core"
)

func TestRunStatePressure(t *testing.T) {
	r, err := RunStatePressure(Quick())
	if err != nil {
		t.Fatal(err)
	}
	regimes := []string{"nominal", "flash-crowd", "syn-flood", "churn"}
	if len(r.Rows) != len(regimes) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(regimes))
	}
	for i, row := range r.Rows {
		if row.Regime.Name != regimes[i] {
			t.Errorf("row %d regime = %s, want %s", i, row.Regime.Name, regimes[i])
		}
		for _, m := range []StatePressureMeasurement{row.Proposed, row.Baseline} {
			if m.GoodputGbps <= 0 || m.GoodputGbps > m.ThroughputGbps+1e-9 {
				t.Errorf("%s under %s: goodput %v vs throughput %v",
					m.Name, row.Regime.Name, m.GoodputGbps, m.ThroughputGbps)
			}
			if m.PrimaryTable().PeakOccupancy == 0 {
				t.Errorf("%s under %s: state table never occupied", m.Name, row.Regime.Name)
			}
		}
	}
	// The attacks must bite: the SYN flood halves goodput relative to
	// nominal (half the offered packets are spoofed SYNs) and pushes the
	// state tables far beyond their nominal occupancy.
	nominal, flood := r.Rows[0], r.Rows[2]
	if flood.Baseline.GoodputGbps >= 0.7*nominal.Baseline.GoodputGbps {
		t.Errorf("flood did not dent baseline goodput: %v vs nominal %v",
			flood.Baseline.GoodputGbps, nominal.Baseline.GoodputGbps)
	}
	if flood.Baseline.PrimaryTable().PeakOccupancy <= nominal.Baseline.PrimaryTable().PeakOccupancy {
		t.Error("flood did not press the baseline conntrack table")
	}
	// The flip map's reference (amply provisioned) must favour the
	// offload system, and starving the fail-closed table must flip the
	// verdict — the experiment's headline result.
	if r.FlipMap.Reference != core.Dominates {
		t.Errorf("flip-map reference relation = %v, want Dominates", r.FlipMap.Reference)
	}
	if r.FlipMap.Stable() {
		t.Error("starving the offload table to 1024 entries did not flip the verdict")
	}
	last := r.FlipRows[len(r.FlipRows)-1]
	if tb := last.Proposed.PrimaryTable(); tb.PeakOccupancy != last.TableSize {
		t.Errorf("starved offload table peak = %d, want full %d", tb.PeakOccupancy, last.TableSize)
	}
	// Eviction policies under the flood: fail-closed must show the most
	// collateral damage, SYN cookies the least (none), and the gradient
	// must be monotone across none -> random -> lru -> lru+syncookies.
	if len(r.Policies) != 4 {
		t.Fatalf("policies = %d, want 4", len(r.Policies))
	}
	for i := 1; i < len(r.Policies); i++ {
		prev, cur := r.Policies[i-1], r.Policies[i]
		if cur.Measurement.CollateralFraction > prev.Measurement.CollateralFraction {
			t.Errorf("collateral not monotone: %s %v -> %s %v",
				prev.Policy, prev.Measurement.CollateralFraction,
				cur.Policy, cur.Measurement.CollateralFraction)
		}
	}
	if r.Policies[0].Measurement.Conntrack.OverflowDrops == 0 {
		t.Error("fail-closed policy under flood recorded no attributed overflow drops")
	}
	if r.Policies[3].Measurement.CollateralFraction != 0 {
		t.Errorf("lru+syncookies collateral = %v, want 0", r.Policies[3].Measurement.CollateralFraction)
	}
	if r.Policies[3].Measurement.Conntrack.CookieBypassed == 0 {
		t.Error("syncookies policy never validated a cookie")
	}

	rep := StatePressureReport(r)
	for _, frag := range []string{"nominal", "syn-flood", "flip map", "FLIP", "lru+syncookies", "fairsim -scenario"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	csv := StatePressureCSV(r)
	if lines := strings.Count(strings.TrimSpace(csv), "\n") + 1; lines != 1+2*len(regimes) {
		t.Errorf("csv has %d lines, want %d:\n%s", lines, 1+2*len(regimes), csv)
	}
	if !strings.Contains(StatePressureFlipCSV(r), "1024") {
		t.Error("flip CSV missing the starved sweep point")
	}
	if !strings.Contains(StatePressureCurvesCSV(r), "offload-table") {
		t.Error("curves CSV missing the offload table series")
	}
}

func TestRunStatePressureReplicated(t *testing.T) {
	o := Quick()
	o.Trials = 3
	r, err := RunStatePressure(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Robust == nil || r.FlipRobust == nil {
		t.Fatal("Trials=3 should attach relation agreement to both the regime sweep and the flip map")
	}
	if len(r.Robust.Confidence) != len(r.Comparison.Verdicts) {
		t.Fatalf("confidence entries = %d, verdicts = %d", len(r.Robust.Confidence), len(r.Comparison.Verdicts))
	}
	if len(r.FlipRobust.Confidence) != len(r.FlipMap.Entries) {
		t.Fatalf("flip confidence entries = %d, sweep points = %d", len(r.FlipRobust.Confidence), len(r.FlipMap.Entries))
	}
	for _, row := range r.Rows {
		if len(row.ProposedTrials) != 3 || len(row.BaselineTrials) != 3 {
			t.Fatalf("regime %s trials = %d/%d, want 3/3",
				row.Regime.Name, len(row.ProposedTrials), len(row.BaselineTrials))
		}
		if row.ProposedCollateralCI.Hi < row.ProposedCollateralCI.Lo {
			t.Errorf("regime %s: inverted collateral CI %v", row.Regime.Name, row.ProposedCollateralCI)
		}
	}
	// The flip must survive replication: starving the table is a
	// physical effect, not seed noise.
	if r.FlipMap.Stable() {
		t.Error("replicated flip map lost the verdict flip")
	}
	rep := StatePressureReport(r)
	for _, frag := range []string{"Agreement", "Collateral CI", "relation agreement"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("replicated report missing %q", frag)
		}
	}
}
