package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// metricsTracer records two spans and one sample tick per device, for
// devices sampled in the given order.
func metricsTracer(devices []string) *Tracer {
	tr := New(nil)
	for _, d := range devices {
		tr.Emit(Event{Kind: "sample", Device: d, Util: 0.5, Queue: 2, Watts: 12.5})
	}
	tr.StartSpan(0).End("dev", "forward")
	tr.StartSpan(1).End("dev", "drop")
	tr.StartSpan(2).End("dev", "forward")
	return tr
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var tr *Tracer
	tr.StartSpan(0).End("dev", "forward")
	tr.Emit(Event{Kind: "sample", Device: "dev", Util: 1})
	if tr.metrics() != nil {
		t.Error("nil tracer should hold no metrics")
	}
	var csv, jl bytes.Buffer
	if err := tr.WriteMetrics(&csv, false); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "name,labels,kind,value,count\n" {
		t.Errorf("nil tracer CSV = %q, want header only", got)
	}
	if err := tr.WriteMetrics(&jl, true); err != nil {
		t.Fatal(err)
	}
	if jl.Len() != 0 {
		t.Errorf("nil tracer JSONL = %q, want empty", jl.String())
	}
	if rows := New(nil).metrics(); len(rows) != 0 {
		t.Errorf("fresh tracer metrics = %+v, want none", rows)
	}
}

func TestCounterSemantics(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 3; i++ {
		tr.StartSpan(float64(i)).End("dev", "forward")
	}
	tr.StartSpan(3).End("other", "drop")
	// Gauges hold the last sample, not a sum.
	tr.Emit(Event{Kind: "sample", Device: "dev", Util: 0.9, Queue: 7, Watts: 20})
	tr.Emit(Event{Kind: "sample", Device: "dev", Util: 0.25, Queue: 1, Watts: 10})
	want := []metricRow{
		{"device_power_watts", "device", "dev", "gauge", 10},
		{"device_queue_depth", "device", "dev", "gauge", 1},
		{"device_utilization", "device", "dev", "gauge", 0.25},
		// One series per verdict, whatever device ended the span.
		{"spans_total", "verdict", "drop", "counter", 1},
		{"spans_total", "verdict", "forward", "counter", 3},
	}
	if got := tr.metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics =\n%+v\nwant\n%+v", got, want)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	export := func(devices []string) string {
		var b bytes.Buffer
		if err := metricsTracer(devices).WriteMetrics(&b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := export([]string{"core1", "core10", "a"})
	if b := export([]string{"core10", "a", "core1"}); a != b {
		t.Errorf("exports differ by sample order:\n%s\n%s", a, b)
	}
	// Series keys are name{device=…}: '}' sorts after '0', so core10
	// precedes core1.
	want := "name,labels,kind,value,count\n" +
		"device_power_watts,device=a,gauge,12.5,0\n" +
		"device_power_watts,device=core10,gauge,12.5,0\n" +
		"device_power_watts,device=core1,gauge,12.5,0\n"
	if len(a) < len(want) || a[:len(want)] != want {
		t.Errorf("export not in series-key order:\n%s", a)
	}
}

func TestExportJSONLAndCSV(t *testing.T) {
	tr := metricsTracer([]string{"core0"})
	var csv, jl bytes.Buffer
	if err := tr.WriteMetrics(&csv, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetrics(&jl, true); err != nil {
		t.Fatal(err)
	}
	wantCSV := `name,labels,kind,value,count
device_power_watts,device=core0,gauge,12.5,0
device_queue_depth,device=core0,gauge,2,0
device_utilization,device=core0,gauge,0.5,0
spans_total,verdict=drop,counter,1,0
spans_total,verdict=forward,counter,2,0
`
	if got := csv.String(); got != wantCSV {
		t.Errorf("CSV =\n%s\nwant\n%s", got, wantCSV)
	}
	wantJSONL := `{"name":"device_power_watts","labels":{"device":"core0"},"kind":"gauge","value":12.5}
{"name":"device_queue_depth","labels":{"device":"core0"},"kind":"gauge","value":2}
{"name":"device_utilization","labels":{"device":"core0"},"kind":"gauge","value":0.5}
{"name":"spans_total","labels":{"verdict":"drop"},"kind":"counter","value":1}
{"name":"spans_total","labels":{"verdict":"forward"},"kind":"counter","value":2}
`
	if got := jl.String(); got != wantJSONL {
		t.Errorf("JSONL =\n%s\nwant\n%s", got, wantJSONL)
	}
}
