package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter should stay 0")
	}
	g := r.Gauge("y")
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge should stay 0")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
}

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts", L("dir", "rx"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 3 {
		t.Errorf("counter = %v, want 3", c.Value())
	}
	// Same name+labels returns the same series regardless of label order.
	c2 := r.Counter("pkts", L("dir", "rx"))
	if c2 != c {
		t.Error("identical series should be shared")
	}
	multi := r.Counter("m", L("b", "2"), L("a", "1"))
	multi.Inc()
	if got := r.Counter("m", L("a", "1"), L("b", "2")).Value(); got != 1 {
		t.Errorf("label order should not split series; got %v", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) []Point {
		r := NewRegistry()
		for _, d := range order {
			r.Gauge("util", L("device", d)).Set(1)
		}
		r.Counter("alpha").Inc()
		return r.Snapshot()
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("snapshots differ by insertion order:\n%s\n%s", ja, jb)
	}
	if a[0].Name != "alpha" {
		t.Errorf("snapshot not sorted by name: first is %q", a[0].Name)
	}
}

func TestExportJSONLAndCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("spans_total", L("verdict", "forward")).Add(10)
	r.Gauge("device_power_watts", L("device", "core0")).Set(12.5)

	var jl bytes.Buffer
	if err := r.ExportJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var p Point
		if err := json.Unmarshal([]byte(ln), &p); err != nil {
			t.Errorf("line %q does not parse: %v", ln, err)
		}
	}

	var csv bytes.Buffer
	if err := r.ExportCSV(&csv); err != nil {
		t.Fatal(err)
	}
	got := csv.String()
	if !strings.HasPrefix(got, "name,labels,kind,value,count\n") {
		t.Errorf("CSV missing header: %q", got)
	}
	if !strings.Contains(got, "spans_total,verdict=forward,counter,10,0") {
		t.Errorf("CSV missing counter row: %q", got)
	}
	if !strings.Contains(got, "device_power_watts,device=core0,gauge,12.5,0") {
		t.Errorf("CSV missing gauge row: %q", got)
	}
}
