// Package cost implements the cost side of fair heterogeneous-systems
// evaluation: per-component cost vectors, end-to-end composition with
// coverage checking (paper Principle 3), and releasable pricing models
// that turn context-dependent TCO into something other researchers can
// recompute for their own context (paper §3.1).
package cost

import (
	"errors"
	"fmt"

	"fairbench/internal/metric"
)

// ErrNotCovered is returned when a cost metric cannot be measured for a
// component of a system under evaluation — the end-to-end coverage
// failure of paper §3.3 (e.g. asking for FPGA LUTs on a CPU-only
// system, or forgetting the FPGA when counting cores).
var ErrNotCovered = errors.New("cost: metric does not cover component")

// Vector maps metric names to measured quantities for one component
// (a CPU, a SmartNIC, a switch, ...). A nil Vector is an empty vector.
type Vector map[string]metric.Quantity

// Component is a named part of a system together with its cost vector.
// End-to-end coverage (Principle 3) demands that "all components of the
// systems that are needed to produce the output are captured in the
// cost".
type Component struct {
	// Name identifies the component, e.g. "host-cpu", "smartnic".
	Name string
	// Costs holds the component's measured cost metrics.
	Costs Vector
}

// ComposePower sums the power metric across all components, enforcing
// end-to-end coverage: every component must report it, otherwise
// ErrNotCovered is returned naming the offending component. This is the
// programmatic form of Principle 3; Coverage checks other metrics.
func ComposePower(components []Component) (metric.Quantity, error) {
	const name = metric.MetricPower
	if len(components) == 0 {
		return metric.Quantity{}, fmt.Errorf("cost: composing %q over no components", name)
	}
	var total metric.Quantity
	for i, c := range components {
		q, ok := c.Costs[name]
		if !ok {
			return metric.Quantity{}, fmt.Errorf("%w: metric %q missing on component %q", ErrNotCovered, name, c.Name)
		}
		if i == 0 {
			total = q
			continue
		}
		sum, err := total.Add(q)
		if err != nil {
			return metric.Quantity{}, fmt.Errorf("cost: composing %q at component %q: %w", name, c.Name, err)
		}
		total = sum
	}
	return total, nil
}

// Coverage reports which of the named metrics have end-to-end coverage
// over the components: covered[name] is true exactly when every
// component reports the metric. It is the planning companion to
// ComposePower — use it to pick a cost metric that can actually be
// reported for all systems in an evaluation (paper §3.3).
func Coverage(names []string, components []Component) map[string]bool {
	covered := make(map[string]bool, len(names))
	for _, n := range names {
		ok := len(components) > 0
		for _, c := range components {
			if _, present := c.Costs[n]; !present {
				ok = false
				break
			}
		}
		covered[n] = ok
	}
	return covered
}
