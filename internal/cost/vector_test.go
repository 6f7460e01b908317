package cost

import (
	"errors"
	"testing"

	"fairbench/internal/metric"
)

func wattVec(w float64) Vector {
	return Vector{metric.MetricPower: metric.Q(w, metric.Watt)}
}

func TestComposeEndToEnd(t *testing.T) {
	// A system of host CPU + SmartNIC: power composes end-to-end.
	comps := []Component{
		{Name: "host", Costs: Vector{
			metric.MetricPower: metric.Q(50, metric.Watt),
			metric.MetricCores: metric.Q(4, metric.Core),
		}},
		{Name: "smartnic", Costs: Vector{
			metric.MetricPower: metric.Q(20, metric.Watt),
			metric.MetricLUTs:  metric.Q(100, metric.KiloLUT),
		}},
	}
	total, err := ComposePower(comps)
	if err != nil {
		t.Fatalf("ComposePower: %v", err)
	}
	if total.Value != 70 || total.Unit != metric.Watt {
		t.Errorf("total power = %v, want 70 W", total)
	}
}

func TestComposeDetectsCoverageHole(t *testing.T) {
	// §3.3: a cost that leaves out a component (here the FPGA's power)
	// is not end-to-end.
	comps := []Component{
		{Name: "host", Costs: Vector{metric.MetricPower: metric.Q(50, metric.Watt)}},
		{Name: "fpga", Costs: Vector{metric.MetricLUTs: metric.Q(200, metric.KiloLUT)}},
	}
	_, err := ComposePower(comps)
	if !errors.Is(err, ErrNotCovered) {
		t.Fatalf("ComposePower over host+fpga: err = %v, want ErrNotCovered", err)
	}
}

func TestComposeEmpty(t *testing.T) {
	if _, err := ComposePower(nil); err == nil {
		t.Error("composing over no components should fail")
	}
}

func TestComposeIncompatibleUnits(t *testing.T) {
	comps := []Component{
		{Name: "a", Costs: Vector{metric.MetricPower: metric.Q(1, metric.Watt)}},
		{Name: "b", Costs: Vector{metric.MetricPower: metric.Q(1, metric.Core)}},
	}
	if _, err := ComposePower(comps); err == nil {
		t.Error("composing mismatched dimensions should fail")
	}
}

func TestCoverage(t *testing.T) {
	comps := []Component{
		{Name: "host", Costs: Vector{
			metric.MetricPower: metric.Q(50, metric.Watt),
			metric.MetricCores: metric.Q(4, metric.Core),
		}},
		{Name: "switch", Costs: Vector{
			metric.MetricPower: metric.Q(150, metric.Watt),
		}},
	}
	cov := Coverage([]string{metric.MetricPower, metric.MetricCores, metric.MetricLUTs}, comps)
	if !cov[metric.MetricPower] {
		t.Error("power should be covered")
	}
	if cov[metric.MetricCores] {
		t.Error("cores should not be covered (switch has none)")
	}
	if cov[metric.MetricLUTs] {
		t.Error("LUTs should not be covered")
	}
	if c := Coverage([]string{metric.MetricPower}, nil); c[metric.MetricPower] {
		t.Error("no components implies no coverage")
	}
}
