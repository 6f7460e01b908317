package metric

import (
	"strings"
	"testing"
)

func TestStandardRegistryPopulated(t *testing.T) {
	r := Standard()
	if n := len(r.List()); n < 15 {
		t.Fatalf("standard registry has %d metrics, want >= 15", n)
	}
	for _, name := range []string{
		MetricPower, MetricTCO, MetricCores, MetricLUTs, MetricRackSpace,
		MetricCarbon, MetricThroughputBps, MetricLatency, MetricJFI,
	} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("standard registry missing %q", name)
		}
	}
}

func TestPowerMeetsAllThreePrinciples(t *testing.T) {
	// §3.4: "Unsurprisingly, power meets all three of our requirements."
	d := Standard().MustLookup(MetricPower)
	if !d.Props.Good() {
		t.Errorf("power properties = %+v, want all three principles satisfied", d.Props)
	}
	if d.Direction != LowerIsBetter || d.Kind != Cost {
		t.Errorf("power direction/kind = %v/%v", d.Direction, d.Kind)
	}
}

func TestTCOFailsContextIndependence(t *testing.T) {
	// §3.1: TCO is the canonical context-dependent metric.
	d := Standard().MustLookup(MetricTCO)
	if d.Props.ContextIndependent {
		t.Error("TCO should not be context-independent")
	}
	if !d.Props.Quantifiable {
		t.Error("TCO is quantifiable (it is computed routinely in industry)")
	}
}

func TestCoresAndLUTsFailEndToEnd(t *testing.T) {
	// §3.3 / §3.4: cores and LUTs cannot be added across device types.
	for _, name := range []string{MetricCores, MetricLUTs} {
		d := Standard().MustLookup(name)
		if d.Props.EndToEnd {
			t.Errorf("%s should fail end-to-end coverage", name)
		}
		if !d.Props.ContextIndependent || !d.Props.Quantifiable {
			t.Errorf("%s should be context-independent and quantifiable", name)
		}
	}
}

func TestCarbonFailsQuantifiable(t *testing.T) {
	d := Standard().MustLookup(MetricCarbon)
	if d.Props.Quantifiable {
		t.Error("carbon footprint should not (yet) be quantifiable (§3.2)")
	}
}

func TestLatencyAndJFINotScalable(t *testing.T) {
	// §4.3: "some metrics do not scale when we scale the system, e.g.,
	// latency and JFI."
	for _, name := range []string{MetricLatency, MetricJFI} {
		if d := Standard().MustLookup(name); d.Scalable {
			t.Errorf("%s should be marked non-scalable", name)
		}
	}
	for _, name := range []string{MetricThroughputBps, MetricPower} {
		if d := Standard().MustLookup(name); !d.Scalable {
			t.Errorf("%s should be marked scalable", name)
		}
	}
}

func TestRegistryRegisterValidate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Descriptor{Name: "", Unit: Watt}); err == nil {
		t.Error("registering a nameless descriptor should fail")
	}
	if err := r.Register(Descriptor{Name: "x", Unit: Unit{}}); err == nil {
		t.Error("registering a zero-scale unit should fail")
	}
	d := Descriptor{Name: "x", Unit: Watt, Kind: Cost}
	if err := r.Register(d); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, ok := r.Lookup("x")
	if !ok || got.Name != "x" {
		t.Errorf("Lookup after Register = %+v, %v", got, ok)
	}
}

func TestRegistryListSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.MustRegister(Descriptor{Name: n, Unit: Watt})
	}
	list := r.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[2].Name != "zeta" {
		t.Errorf("List not sorted: %v", list)
	}
}

func TestRegistryCostPerfSplit(t *testing.T) {
	r := Standard()
	for _, d := range r.Costs() {
		if d.Kind != Cost {
			t.Errorf("Costs() returned %s of kind %v", d.Name, d.Kind)
		}
	}
	if n := len(r.Costs()); n == 0 || n == len(r.List()) {
		t.Errorf("standard registry has %d cost metrics of %d: want both kinds", n, len(r.List()))
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of missing metric did not panic")
		}
	}()
	NewRegistry().MustLookup("no-such-metric")
}

func TestDescriptorString(t *testing.T) {
	d := Standard().MustLookup(MetricCores)
	s := d.String()
	if !strings.Contains(s, "!E2E") {
		t.Errorf("descriptor string %q should flag failed end-to-end property", s)
	}
	p := Standard().MustLookup(MetricPower)
	if s := p.String(); !strings.Contains(s, "CI Q E2E") || strings.Contains(s, "!") {
		t.Errorf("power descriptor string %q should show all properties passing", s)
	}
}

func TestZeroRegistryUsable(t *testing.T) {
	var r Registry
	if err := r.Register(Descriptor{Name: "m", Unit: Watt}); err != nil {
		t.Fatalf("zero-value registry Register: %v", err)
	}
	if n := len(r.List()); n != 1 {
		t.Errorf("len(List()) = %d, want 1", n)
	}
}
