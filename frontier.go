package fairbench

import (
	"fmt"

	"fairbench/internal/core"
	"fairbench/internal/hw"
	"fairbench/internal/metric"
	"fairbench/internal/report"
	"fairbench/internal/testbed"
)

// FrontierResult generalises the paper's two-system comparisons to a
// whole design space (§4: "the approach generalizes when comparing
// larger numbers of systems"): every simulated deployment is measured
// under the same workload, the Pareto frontier is computed, and each
// pair of frontier neighbours gets a verdict.
type FrontierResult struct {
	// Systems are all measured deployments.
	Systems []MeasuredSystem
	// Frontier and Dominated partition Systems.
	Frontier  []MeasuredSystem
	Dominated []MeasuredSystem
	// Verdicts compares each dominated system against the frontier
	// system that dominates it.
	Verdicts []Verdict
}

// frontierDeployments is the design space swept by RunFrontier: CPU
// scaling (1-3 cores), SmartNIC offload, switch preprocessing, and a
// mid-sized FPGA — every hardware class the paper's survey mentions.
func frontierDeployments() map[string]func() (*testbed.Deployment, error) {
	return map[string]func() (*testbed.Deployment, error){
		"fw-host-1core": func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) },
		"fw-host-2core": func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(2) },
		"fw-host-3core": func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(3) },
		"fw-smartnic":   func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() },
		"fw-switch":     func() (*testbed.Deployment, error) { return testbed.SwitchFirewall(3) },
		"fw-fpga": func() (*testbed.Deployment, error) {
			return testbed.FPGAFirewall(hw.FPGAConfig{
				CapacityPps: 8e6, PipelineLatencySeconds: 1e-6,
				IdleWatts: 20, ActiveWatts: 45,
			})
		},
	}
}

// frontierOrder fixes a deterministic sweep order.
var frontierOrder = []string{
	"fw-host-1core", "fw-host-2core", "fw-host-3core",
	"fw-smartnic", "fw-switch", "fw-fpga",
}

// RunFrontier measures the whole design space under the E6 workload and
// computes the throughput/power Pareto frontier.
func RunFrontier(o ExpOptions) (FrontierResult, error) {
	o = o.withDefaults()
	gen := seededGen(testbed.E6Workload)
	deployments := frontierDeployments()

	var res FrontierResult
	for _, name := range frontierOrder {
		ms, err := measureThroughput(name, deployments[name], gen, o, 48e6)
		if err != nil {
			return res, fmt.Errorf("frontier: %w", err)
		}
		res.Systems = append(res.Systems, ms.MeasuredSystem)
	}

	plane := core.DefaultPlane()
	named := make([]core.NamedPoint, 0, len(res.Systems))
	byName := make(map[string]MeasuredSystem)
	for _, s := range res.Systems {
		named = append(named, core.NamedPoint{
			Name:  s.Name,
			Point: core.Pt(metric.Q(s.ThroughputGbps, metric.GigabitPerSecond), metric.Q(s.PowerWatts, metric.Watt)),
		})
		byName[s.Name] = s
	}
	frontier, dominated, err := core.NamedFrontier(plane, named)
	if err != nil {
		return res, err
	}
	for _, f := range frontier {
		res.Frontier = append(res.Frontier, byName[f.Name])
	}
	for _, d := range dominated {
		res.Dominated = append(res.Dominated, byName[d.Name])
	}

	// For each dominated system, find a frontier system dominating it
	// and produce the explained verdict.
	e, err := core.NewEvaluator(plane)
	if err != nil {
		return res, err
	}
	for _, d := range dominated {
		for _, f := range frontier {
			rel, err := core.Compare(plane, f.Point, d.Point, core.DefaultTolerance)
			if err != nil {
				return res, err
			}
			if rel == core.Dominates {
				v, err := e.Evaluate(
					core.System{Name: f.Name, Point: f.Point, Scalable: true},
					core.System{Name: d.Name, Point: d.Point, Scalable: true})
				if err != nil {
					return res, err
				}
				res.Verdicts = append(res.Verdicts, v)
				break
			}
		}
	}
	return res, nil
}

// FrontierReport renders the sweep as a table.
func FrontierReport(f FrontierResult) string {
	onFrontier := make(map[string]bool)
	for _, s := range f.Frontier {
		onFrontier[s.Name] = true
	}
	t := report.NewTable("Design-space sweep: throughput/power frontier (measured, common workload)",
		"System", "Throughput (Gb/s)", "Power (W)", "Gb/s per W", "On frontier")
	for _, s := range f.Systems {
		// Power comes from provisioned peak draw, so it is positive for
		// any real deployment; guard the division anyway so a degenerate
		// measurement renders as n/a instead of poisoning the table.
		eff := "n/a"
		if s.PowerWatts > 0 {
			eff = fmt.Sprintf("%.3f", s.ThroughputGbps/s.PowerWatts)
		}
		t.AddRowf("%s|%.2f|%.0f|%s|%s", s.Name, s.ThroughputGbps, s.PowerWatts,
			eff, report.Check(onFrontier[s.Name]))
	}
	out := t.Text() + "\n"
	for _, v := range f.Verdicts {
		out += FormatVerdict(v) + "\n"
	}
	return out
}

// FrontierPlot renders the sweep as a performance-cost scatter.
func FrontierPlot(f FrontierResult) *report.PlanePlot {
	p := &report.PlanePlot{
		Title:     "Design-space frontier: firewall deployments",
		CostLabel: "Power (W)",
		PerfLabel: "Throughput (Gb/s)",
	}
	onFrontier := make(map[string]bool)
	for _, s := range f.Frontier {
		onFrontier[s.Name] = true
	}
	for _, s := range f.Systems {
		p.Points = append(p.Points, report.PlanePoint{
			Label:  s.Name,
			Cost:   s.PowerWatts,
			Perf:   s.ThroughputGbps,
			Hollow: !onFrontier[s.Name],
		})
	}
	return p
}
