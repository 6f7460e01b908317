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
	total, err := Compose(metric.MetricPower, comps)
	if err != nil {
		t.Fatalf("Compose(power): %v", err)
	}
	if total.Value != 70 || total.Unit != metric.Watt {
		t.Errorf("total power = %v, want 70 W", total)
	}
}

func TestComposeDetectsCoverageHole(t *testing.T) {
	// §3.3's example: "number of CPU cores ... does not account for the
	// cost of the FPGA in one of the systems."
	comps := []Component{
		{Name: "host", Costs: Vector{metric.MetricCores: metric.Q(4, metric.Core)}},
		{Name: "fpga", Costs: Vector{metric.MetricLUTs: metric.Q(200, metric.KiloLUT)}},
	}
	_, err := Compose(metric.MetricCores, comps)
	if !errors.Is(err, ErrNotCovered) {
		t.Fatalf("Compose(cores) over host+fpga: err = %v, want ErrNotCovered", err)
	}
}

func TestComposeEmpty(t *testing.T) {
	if _, err := Compose(metric.MetricPower, nil); err == nil {
		t.Error("composing over no components should fail")
	}
}

func TestComposeIncompatibleUnits(t *testing.T) {
	comps := []Component{
		{Name: "a", Costs: Vector{"m": metric.Q(1, metric.Watt)}},
		{Name: "b", Costs: Vector{"m": metric.Q(1, metric.Core)}},
	}
	if _, err := Compose("m", comps); err == nil {
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
