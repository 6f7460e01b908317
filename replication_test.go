package fairbench

import (
	"errors"
	"reflect"
	"testing"

	"fairbench/internal/stats"
)

// replicationOpts is a reduced-fidelity option set for multi-trial
// tests: five full RFC 2544 searches per system are expensive at Quick
// fidelity, and the replication machinery is what is under test here,
// not measurement accuracy.
func replicationOpts(trials int) ExpOptions {
	return ExpOptions{TrialSeconds: 0.004, Seed: 1, SearchResolution: 0.1, Trials: trials}
}

func TestTrialSeedDerivation(t *testing.T) {
	// Trial 0 uses the base seed unchanged: single-trial runs reproduce
	// historical artifacts byte for byte.
	if got := TrialSeed(7, 0); got != 7 {
		t.Errorf("TrialSeed(7, 0) = %d, want 7", got)
	}
	// No aliasing across (seed, trial) pairs: additive seed+k schemes
	// collide on (1,2) vs (2,1); the mixed derivation must not.
	if TrialSeed(1, 2) == TrialSeed(2, 1) {
		t.Error("TrialSeed aliases (1,2) with (2,1)")
	}
	// Deterministic and distinct per trial.
	seen := map[uint64]bool{}
	for k := 0; k < 8; k++ {
		s := TrialSeed(42, k)
		if s != TrialSeed(42, k) {
			t.Fatalf("TrialSeed not deterministic at k=%d", k)
		}
		if seen[s] {
			t.Fatalf("TrialSeed(42, %d) = %d collides with an earlier trial", k, s)
		}
		seen[s] = true
	}
}

func TestExpOptionsValidate(t *testing.T) {
	if err := (ExpOptions{Trials: -1}).Validate(); !errors.Is(err, ErrBadTrials) {
		t.Errorf("Trials=-1: err = %v, want ErrBadTrials", err)
	}
	// Zero values mean "use defaults" and are valid.
	if err := (ExpOptions{}).Validate(); err != nil {
		t.Errorf("zero options: %v", err)
	}
	if err := DefaultExpOptions().Validate(); err != nil {
		t.Errorf("default options: %v", err)
	}
	// The typed errors surface through the drivers before simulation.
	if _, err := RunSmartNIC(ExpOptions{Trials: -3}); !errors.Is(err, ErrBadTrials) {
		t.Errorf("RunSmartNIC bad trials: %v", err)
	}
}

func TestReplicatedNominalIsMedianTrial(t *testing.T) {
	mk := func(name string, gbps float64) MeasuredSystem {
		return MeasuredSystem{Name: name, ThroughputGbps: gbps}
	}
	r := replicated([]MeasuredSystem{mk("c", 30), mk("a", 10), mk("b", 20)}, []uint64{1, 2, 3})
	if r.Name != "b" || r.ThroughputGbps != 20 {
		t.Errorf("nominal = %+v, want the median-throughput trial", r.MeasuredSystem)
	}
	if len(r.Trials) != 3 || len(r.Seeds) != 3 {
		t.Errorf("trials/seeds = %d/%d", len(r.Trials), len(r.Seeds))
	}
	got := r.ThroughputSamples()
	if !reflect.DeepEqual(got, []float64{30, 10, 20}) {
		t.Errorf("samples keep trial order: %v", got)
	}
	// Even trial count: lower-middle element, deterministically.
	r = replicated([]MeasuredSystem{mk("d", 40), mk("a", 10), mk("c", 30), mk("b", 20)}, []uint64{1, 2, 3, 4})
	if r.Name != "b" {
		t.Errorf("even-count nominal = %s, want b (lower middle)", r.Name)
	}
}

// TestSmartNICRobustVerdictDeterministic is the E6 acceptance check:
// with >=5 seeded trials the robust verdict (confidence, CIs, flip
// set) is byte-identical across repeated runs of the same seed.
func TestSmartNICRobustVerdictDeterministic(t *testing.T) {
	o := replicationOpts(5)
	a, err := RunSmartNIC(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.RobustVs2 == nil {
		t.Fatal("Trials=5 should produce a robust verdict")
	}
	rv := a.RobustVs2
	if rv.Confidence < 0 || rv.Confidence > 1 {
		t.Errorf("confidence = %v, want in [0,1]", rv.Confidence)
	}
	if rv.ProposedTrials != 5 || rv.BaselineTrials != 5 {
		t.Errorf("trial counts = %d/%d, want 5/5", rv.ProposedTrials, rv.BaselineTrials)
	}
	total := 0
	for _, n := range rv.Distribution {
		total += n
	}
	if total != stats.Resamples {
		t.Errorf("distribution sums to %d, want %d", total, stats.Resamples)
	}
	if len(a.Proposed.Trials) != 5 || len(a.Proposed.Seeds) != 5 {
		t.Errorf("proposed trials/seeds = %d/%d", len(a.Proposed.Trials), len(a.Proposed.Seeds))
	}

	b, err := RunSmartNIC(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed replicated runs differ:\n%+v\nvs\n%+v", a.RobustVs2, b.RobustVs2)
	}

	// A different base seed perturbs the per-trial measurements.
	o2 := o
	o2.Seed = 99
	c, err := RunSmartNIC(o2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Proposed.ThroughputSamples(), c.Proposed.ThroughputSamples()) {
		t.Error("different base seeds produced identical trial samples")
	}
}

func TestSwitchScalingRobustVerdict(t *testing.T) {
	res, err := RunSwitchScaling(replicationOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Robust == nil {
		t.Fatal("Trials=3 should produce a robust verdict")
	}
	if res.Robust.Conclusion != res.Verdict.Conclusion {
		t.Errorf("robust nominal conclusion %v != point verdict %v",
			res.Robust.Conclusion, res.Verdict.Conclusion)
	}
	if got := res.Robust.Confidence; got < 0 || got > 1 {
		t.Errorf("confidence = %v, want in [0,1]", got)
	}
	single, err := RunSwitchScaling(replicationOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if single.Robust != nil {
		t.Error("single-trial switch-scaling run should not carry a robust verdict")
	}
}

func TestSingleTrialMatchesHistoricalBehaviour(t *testing.T) {
	// Trials=1 must reproduce the exact measurement an unreplicated run
	// produced (trial 0 uses the base seed unchanged) and carry no
	// robust verdict.
	o := replicationOpts(1)
	res, err := RunSmartNIC(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.RobustVs2 != nil {
		t.Error("single-trial run should not carry a robust verdict")
	}
	if len(res.Proposed.Trials) != 1 || res.Proposed.Seeds[0] != o.Seed {
		t.Errorf("single trial should use the base seed: %+v", res.Proposed.Seeds)
	}
	if res.Proposed.MeasuredSystem != res.Proposed.Trials[0] {
		t.Error("nominal of a single-trial run must be that trial")
	}
}
