package profile

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
)

// quick returns low-fidelity options fast enough for unit tests.
func quick() Options {
	return Options{TrialSeconds: 0.004, Seed: 1, Trials: 1, ResolutionFraction: 0.1}
}

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{
		{TrialSeconds: -1},
		{Trials: -2},
	} {
		if _, err := Run(testbed.ProfileTarget{}, o); err == nil {
			t.Errorf("options %+v should be rejected", o)
		}
	}
}

func TestTrialSeedStability(t *testing.T) {
	// Trial 0 keeps the base seed, so a single-trial profile
	// reproduces the seed's canonical artifacts exactly.
	if stats.TrialSeed(7, 0) != 7 {
		t.Error("trial 0 must use the base seed unchanged")
	}
	if stats.TrialSeed(7, 1) == 7 || stats.TrialSeed(7, 1) == stats.TrialSeed(7, 2) {
		t.Error("derived trial seeds must differ")
	}
}

func TestProfileSmartNIC(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation searches are not short")
	}
	target, err := testbed.FirewallProfileTarget("smartnic")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(target, quick())
	if err != nil {
		t.Fatal(err)
	}
	if p.System != "fw-smartnic" || p.SaturationPps <= 0 {
		t.Fatalf("bad profile header: %+v", p)
	}
	if ci := p.SaturationCI; ci.Lo > p.SaturationPps || ci.Hi < p.SaturationPps {
		t.Errorf("saturation CI %v excludes the median %v", p.SaturationCI, p.SaturationPps)
	}
	if len(p.Operators) != 3 {
		t.Fatalf("want 3 operator costs, got %d", len(p.Operators))
	}
	byName := map[string]OperatorCost{}
	for _, op := range p.Operators {
		byName[op.Operator] = op
		if ci := op.DeltaCI; ci.Lo > op.DeltaPps || ci.Hi < op.DeltaPps {
			t.Errorf("%s: delta CI %v excludes the median delta %v", op.Operator, op.DeltaCI, op.DeltaPps)
		}
	}
	// The fast path carries established flows; ablating it pushes
	// everything onto the single host core, so it must show up as a
	// large capacity *contribution* (negative delta).
	if fp := byName[testbed.StageSmartNICFastPath]; fp.DeltaPps >= 0 {
		t.Errorf("fast-path ablation should lose capacity (negative delta), got %v", fp.DeltaPps)
	}
	if len(p.Regimes) != 2 || p.Regimes[0].Regime != "pre-knee" || p.Regimes[1].Regime != "post-knee" {
		t.Fatalf("want pre-knee and post-knee regimes, got %+v", p.Regimes)
	}
	for _, r := range p.Regimes {
		if r.Device == "" || len(r.Stages) == 0 {
			t.Errorf("%s: no bottleneck named: %+v", r.Regime, r)
		}
	}
	if post := p.Regimes[1]; post.LossFraction == 0 {
		t.Errorf("post-knee regime at %.2fx saturation should lose packets", post.LoadFraction)
	}
}

func TestProfileDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation searches are not short")
	}
	target, err := testbed.FirewallProfileTarget("host-1core")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(target, quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(target, quick())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different profiles:\n%+v\n%+v", a, b)
	}
}

func TestRunRejectsUnsaturableTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation searches are not short")
	}
	// A core so slow that even the search's minimum rate overloads it:
	// there is no saturation point to profile.
	slow := testbed.ScenarioCore
	slow.FreqHz = 1e6
	target := testbed.ProfileTarget{
		System: "fw-snail",
		MaxPps: 1e6,
		Make: func(ablate []string) (*testbed.Deployment, error) {
			return testbed.New(testbed.Config{
				Name:         "fw-snail",
				Cores:        1,
				CoreCfg:      slow,
				ChassisWatts: testbed.ScenarioChassisWatts,
				NICWatts:     testbed.ScenarioNICWatts,
				NewNF: func(core int) (nf.Func, error) {
					return nf.NewFirewall(fmt.Sprintf("fw-core%d", core),
						nf.NewLinearMatcher(testbed.FirewallRules(0))), nil
				},
			})
		},
		Workload: testbed.E6Workload,
	}
	_, err := Run(target, quick())
	if !errors.Is(err, ErrNoSaturation) {
		t.Fatalf("want ErrNoSaturation, got %v", err)
	}
}
