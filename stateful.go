package fairbench

import (
	"fmt"

	"fairbench/internal/core"
	"fairbench/internal/nf"
	"fairbench/internal/report"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// Stateful-firewall ablation (extension): connection tracking moves
// rule lookup off the per-packet path — established flows take a hash
// lookup instead of a rule-set scan. It is the software analogue of the
// §4.2 SmartNIC flow offload, and because both variants run on the same
// hardware, the comparison collapses to one dimension (Principle 4):
// same cost, higher performance. This experiment measures both variants
// and produces the corresponding same-regime verdict — a second,
// software-only instance of Figure 1a.

// StatefulAblationResult is the measured ablation.
type StatefulAblationResult struct {
	Stateless ReplicatedSystem
	Stateful  ReplicatedSystem
	Verdict   Verdict
	// Speedup is stateful/stateless processed throughput.
	Speedup float64
}

// statefulFirewall builds the one-core conntrack deployment over the
// canonical rules.
func statefulFirewall() (*testbed.Deployment, error) {
	m := nf.NewLinearMatcher(testbed.FirewallRules(testbed.DefaultFillerRules))
	return testbed.New(testbed.Config{
		Name:         "fw-stateful-1core",
		Cores:        1,
		CoreCfg:      testbed.ScenarioCore,
		ChassisWatts: testbed.ScenarioChassisWatts,
		NICWatts:     testbed.ScenarioNICWatts,
		NewNF: func(core int) (nf.Func, error) {
			return nf.NewConntrackWith(fmt.Sprintf("ct-core%d", core), m, nf.ConntrackConfig{}), nil
		},
	})
}

// RunStatefulAblation measures stateless vs conntrack firewalls on
// identical hardware under a UDP flow mix (UDP flows establish on first
// accept, so long flows amortise the rule scan).
func RunStatefulAblation(o ExpOptions) (StatefulAblationResult, error) {
	o = o.withDefaults()
	// Few, long flows: the regime where state pays. Zipf popularity
	// concentrates packets on flows that stay established.
	gen := seededGen(func(seed uint64) (*workload.Generator, error) {
		return workload.NewGenerator(workload.Spec{
			Flows:          512,
			ZipfSkew:       1.1,
			AttackFraction: 0.2,
			Seed:           seed,
		})
	})
	var res StatefulAblationResult
	var err error
	res.Stateless, err = measureThroughput("fw-stateless-1core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }, gen, o, 16e6)
	if err != nil {
		return res, err
	}
	res.Stateful, err = measureThroughput("fw-stateful-1core",
		statefulFirewall, gen, o, 16e6)
	if err != nil {
		return res, err
	}
	res.Speedup = res.Stateful.ThroughputGbps / res.Stateless.ThroughputGbps

	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	res.Verdict, err = e.Evaluate(
		res.Stateful.ThroughputPowerSystem(),
		res.Stateless.ThroughputPowerSystem())
	return res, err
}

// StatefulAblationReport renders the ablation.
func StatefulAblationReport(r StatefulAblationResult) string {
	t := report.NewTable("Ablation: stateless vs connection-tracking firewall (same hardware)",
		"Variant", "Throughput (Gb/s)", "Power (W)", "p99 (µs)")
	t.AddRowf("%s|%.2f|%.0f|%.2f", r.Stateless.Name, r.Stateless.ThroughputGbps, r.Stateless.PowerWatts, r.Stateless.LatencyP99Us)
	t.AddRowf("%s|%.2f|%.0f|%.2f", r.Stateful.Name, r.Stateful.ThroughputGbps, r.Stateful.PowerWatts, r.Stateful.LatencyP99Us)
	return t.Text() + fmt.Sprintf("\nspeedup: %.2fx at identical cost\n\n", r.Speedup) + FormatVerdict(r.Verdict)
}
