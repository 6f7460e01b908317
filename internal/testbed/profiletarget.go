package testbed

import (
	"fmt"

	"fairbench/internal/nf"
	"fairbench/internal/workload"
)

// Profile targets: the saturation-delta profiler (internal/profile)
// measures per-operator cost by re-running a system's RFC 2544
// saturation search with one operator ablated at a time. A
// ProfileTarget packages everything the profiler needs to do that for
// one scenario system — a deployment factory that accepts stage
// ablations, a seeded workload factory, the catalogue of ablatable
// operators, and the search ceiling — without the profiler knowing how
// firewalls are assembled.

// ProfileStage describes one ablatable operator of a profile target.
type ProfileStage struct {
	// Name is the toggle passed in Make's ablate list (Stage* constant).
	Name string
	// Description says what ablating the operator removes.
	Description string
}

// ProfileTarget bundles one system for saturation-delta profiling.
type ProfileTarget struct {
	// System is the deployment name ("fw-smartnic").
	System string
	// Stages lists the ablatable operators, in report order.
	Stages []ProfileStage
	// MaxPps bounds the RFC 2544 saturation search.
	MaxPps float64
	// Make builds a fresh deployment with the named stages ablated
	// (nil/empty = full pipeline). Unknown names error with
	// ErrUnknownStage.
	Make func(ablate []string) (*Deployment, error)
	// Workload builds the target's canonical traffic for one seed.
	Workload func(seed uint64) (*workload.Generator, error)
}

// firewallRulesAblated applies the NF-level toggles to the canonical
// rule set and splits out the pipeline-level toggles for
// Config.AblateStages. Unknown toggles error.
func firewallRulesAblated(ablate []string) (rules []nf.Rule, pipeline []string, err error) {
	attack, filler := true, true
	for _, a := range ablate {
		switch a {
		case StageAttackRule:
			attack = false
		case StageFillerRules:
			filler = false
		case StageSmartNICFastPath, StageSwitchPredrop:
			pipeline = append(pipeline, a)
		default:
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownStage, a)
		}
	}
	n := DefaultFillerRules
	if !filler {
		n = 0
	}
	rules = FirewallRules(n)
	if !attack {
		// Drop rule 0: blocklisted traffic now walks the whole chain.
		rules = rules[1:]
	}
	return rules, pipeline, nil
}

// rejectPipeline errors when a host-only target is asked to ablate a
// pipeline stage it does not have.
func rejectPipeline(system string, pipeline []string) error {
	for _, p := range pipeline {
		return fmt.Errorf("%w: %s has no %q stage", ErrUnknownStage, system, p)
	}
	return nil
}

// nfStages is the operator catalogue shared by every firewall target.
func nfStages() []ProfileStage {
	return []ProfileStage{
		{Name: StageAttackRule, Description: "rule-0 early drop of blocklisted traffic"},
		{Name: StageFillerRules, Description: fmt.Sprintf("%d filler rules padding the linear scan", DefaultFillerRules)},
	}
}

// FirewallProfileTarget returns the profile target for one of the
// worked-example firewall systems: "host-1core", "host-2core",
// "smartnic" (§4.2) or "switch" (§4.2.1, 3 host cores, E7 traffic).
func FirewallProfileTarget(system string) (ProfileTarget, error) {
	hostTarget := func(cores int, maxPps float64) ProfileTarget {
		name := fmt.Sprintf("fw-host-%dcore", cores)
		return ProfileTarget{
			System: name,
			Stages: nfStages(),
			MaxPps: maxPps,
			Make: func(ablate []string) (*Deployment, error) {
				rules, pipeline, err := firewallRulesAblated(ablate)
				if err != nil {
					return nil, err
				}
				if err := rejectPipeline(name, pipeline); err != nil {
					return nil, err
				}
				return New(Config{
					Name:         name,
					Cores:        cores,
					CoreCfg:      ScenarioCore,
					ChassisWatts: ScenarioChassisWatts,
					NICWatts:     ScenarioNICWatts,
					NewNF:        firewallFactory(nf.NewLinearMatcher(rules)),
				})
			},
			Workload: E6Workload,
		}
	}
	switch system {
	case "host-1core":
		return hostTarget(1, 16e6), nil
	case "host-2core":
		return hostTarget(2, 24e6), nil
	case "smartnic":
		return ProfileTarget{
			System: "fw-smartnic",
			Stages: append(nfStages(), ProfileStage{
				Name:        StageSmartNICFastPath,
				Description: "SmartNIC flow-offload fast path (established flows bypass the host)",
			}),
			MaxPps: 24e6,
			Make: func(ablate []string) (*Deployment, error) {
				rules, pipeline, err := firewallRulesAblated(ablate)
				if err != nil {
					return nil, err
				}
				snic := ScenarioSmartNIC
				return New(Config{
					Name:         "fw-smartnic",
					Cores:        1,
					CoreCfg:      ScenarioCore,
					ChassisWatts: ScenarioChassisWatts,
					SmartNIC:     &snic,
					NewNF:        firewallFactory(nf.NewLinearMatcher(rules)),
					AblateStages: pipeline,
				})
			},
			Workload: E6Workload,
		}, nil
	case "switch":
		return ProfileTarget{
			System: "fw-switch-3core",
			Stages: append(nfStages(), ProfileStage{
				Name:        StageSwitchPredrop,
				Description: "in-network pre-drop of blocklisted traffic on the programmable switch",
			}),
			MaxPps: 48e6,
			Make: func(ablate []string) (*Deployment, error) {
				rules, pipeline, err := firewallRulesAblated(ablate)
				if err != nil {
					return nil, err
				}
				sw := ScenarioSwitch
				// The switch pre-drops with the attack rule, so the
				// NF-level attack-rule ablation empties the switch's
				// table too — the ablated pipeline must not keep the
				// operator in hardware that was removed from software.
				swRules := rules
				if len(swRules) > 0 && swRules[0].ID == 0 {
					swRules = swRules[:1]
				} else {
					swRules = nil
				}
				return New(Config{
					Name:         "fw-switch-3core",
					Cores:        3,
					CoreCfg:      ScenarioCore,
					ChassisWatts: ScenarioChassisWatts,
					NICWatts:     ScenarioNICWatts,
					Switch:       &sw,
					SwitchRules:  swRules,
					NewNF:        firewallFactory(nf.NewLinearMatcher(rules)),
					AblateStages: pipeline,
				})
			},
			Workload: E7Workload,
		}, nil
	default:
		return ProfileTarget{}, fmt.Errorf("testbed: no profile target for system %q (want host-1core, host-2core, smartnic, or switch)", system)
	}
}
