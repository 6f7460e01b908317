package testbed

import (
	"errors"
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/workload"
)

func TestAblateUnknownStageErrors(t *testing.T) {
	_, err := New(Config{
		Name:         "bad",
		NewNF:        firewallFactory(nf.NewLinearMatcher(FirewallRules(0))),
		AblateStages: []string{"no-such-stage"},
	})
	if !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("want ErrUnknownStage, got %v", err)
	}
}

func TestAblateStageRequiresDevice(t *testing.T) {
	for _, stage := range []string{StageSmartNICFastPath, StageSwitchPredrop} {
		_, err := New(Config{
			Name:         "host-only",
			NewNF:        firewallFactory(nf.NewLinearMatcher(FirewallRules(0))),
			AblateStages: []string{stage},
		})
		if !errors.Is(err, ErrUnknownStage) {
			t.Errorf("%s on a host-only config: want ErrUnknownStage, got %v", stage, err)
		}
	}
}

func TestFirewallRulesAblated(t *testing.T) {
	full, _, err := firewallRulesAblated(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + DefaultFillerRules + 3; len(full) != want {
		t.Fatalf("full rule set: got %d rules, want %d", len(full), want)
	}
	noAttack, _, err := firewallRulesAblated([]string{StageAttackRule})
	if err != nil {
		t.Fatal(err)
	}
	if len(noAttack) != len(full)-1 || noAttack[0].ID == 0 {
		t.Fatalf("attack-rule ablation: got %d rules, first ID %d", len(noAttack), noAttack[0].ID)
	}
	noFiller, pipeline, err := firewallRulesAblated([]string{StageFillerRules, StageSmartNICFastPath})
	if err != nil {
		t.Fatal(err)
	}
	if len(noFiller) != 4 {
		t.Fatalf("filler ablation: got %d rules, want 4", len(noFiller))
	}
	if len(pipeline) != 1 || pipeline[0] != StageSmartNICFastPath {
		t.Fatalf("pipeline toggles not split out: %v", pipeline)
	}
	if _, _, err := firewallRulesAblated([]string{"bogus"}); !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("want ErrUnknownStage, got %v", err)
	}
}

func TestSmartNICFastPathAblation(t *testing.T) {
	target, err := FirewallProfileTarget("smartnic")
	if err != nil {
		t.Fatal(err)
	}
	run := func(ablate []string) *Deployment {
		d, err := target.Make(ablate)
		if err != nil {
			t.Fatal(err)
		}
		g, err := target.Workload(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(g, workload.CBR{}, 2e6, 0.004); err != nil {
			t.Fatal(err)
		}
		return d
	}
	full := run(nil)
	if full.SmartNIC().Offloaded == 0 {
		t.Fatal("full pipeline: expected offloaded packets")
	}
	ablated := run([]string{StageSmartNICFastPath})
	if got := ablated.SmartNIC().Offloaded; got != 0 {
		t.Fatalf("ablated fast path still offloaded %d packets", got)
	}
	// The device stays provisioned: ablation removes the function, not
	// the hardware, so the cost side of the comparison is unchanged.
	fp, err := full.ProvisionedPowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ablated.ProvisionedPowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	if fp != ap {
		t.Fatalf("ablation changed provisioned power: %v vs %v", fp, ap)
	}
}

func TestSwitchPredropAblation(t *testing.T) {
	target, err := FirewallProfileTarget("switch")
	if err != nil {
		t.Fatal(err)
	}
	loss := func(ablate []string) float64 {
		d, err := target.Make(ablate)
		if err != nil {
			t.Fatal(err)
		}
		g, err := target.Workload(1)
		if err != nil {
			t.Fatal(err)
		}
		// Above the 3-core host capacity but well under it once the
		// switch pre-drops the 75% attack share.
		res, err := d.Run(g, workload.CBR{}, 18e6, 0.004)
		if err != nil {
			t.Fatal(err)
		}
		return res.LossFraction
	}
	full := loss(nil)
	ablated := loss([]string{StageSwitchPredrop})
	if ablated <= full {
		t.Fatalf("predrop ablation should overload the host: full loss %v, ablated loss %v", full, ablated)
	}
}

func TestFirewallProfileTargetUnknownSystem(t *testing.T) {
	if _, err := FirewallProfileTarget("toaster"); err == nil {
		t.Fatal("want error for unknown system")
	}
}
