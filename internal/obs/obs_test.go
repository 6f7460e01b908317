package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"fairbench/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.metrics() != nil {
		t.Error("nil tracer should hold no metrics")
	}
	tr.SetSink(func(Event) { t.Error("sink on nil tracer must never fire") })
	tr.Emit(Event{Kind: "span"})
	if tr.Events() != 0 || tr.Err() != nil {
		t.Error("nil tracer must record nothing")
	}
	if tr.Breakdown().Spans() != 0 {
		t.Error("nil breakdown should report zero spans")
	}

	sp := tr.StartSpan(0)
	if sp != nil {
		t.Fatal("nil tracer should hand out a nil span")
	}
	sp.Stage("queue", 1e-6) // must not panic
	sp.End("dev", "forward")

	hook := KernelHook(nil)
	hook(1, 2, 3) // must not panic
}

func TestSpanEmissionAndBreakdown(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	var seen []Event
	tr.SetSink(func(e Event) { seen = append(seen, e) })

	sp := tr.StartSpan(0.5)
	sp.Stage("switch", 4e-7)
	sp.Stage("queue", 1e-6)
	sp.Stage("service", 2e-6)
	sp.End("core0", "forward")

	sp2 := tr.StartSpan(0.6)
	sp2.Stage("switch", 4e-7)
	sp2.End("sw", "drop")

	if len(seen) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(seen))
	}
	e := seen[0]
	if e.Kind != "span" || e.ID != 1 || e.Device != "core0" || e.Verdict != "forward" {
		t.Errorf("unexpected span event %+v", e)
	}
	want := 4e-7 + 1e-6 + 2e-6
	if math.Abs(e.Dur-want) > 1e-15 {
		t.Errorf("span Dur = %v, want sum of stages %v", e.Dur, want)
	}

	// Every line of the JSONL output must parse back to the same event.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want 2", len(lines))
	}
	var decoded Event
	if err := json.Unmarshal([]byte(lines[0]), &decoded); err != nil {
		t.Fatalf("trace line does not parse: %v", err)
	}
	if decoded.Verdict != "forward" || len(decoded.Stages) != 3 {
		t.Errorf("decoded event %+v lost fields", decoded)
	}

	bd := tr.Breakdown()
	if bd.Spans() != 2 {
		t.Errorf("Spans = %d, want 2", bd.Spans())
	}
	stages := bd.Stages()
	if len(stages) != 3 || stages[0].Name != "switch" {
		t.Fatalf("stages = %+v, want switch first (first-seen order)", stages)
	}
	if stages[0].Count != 2 || math.Abs(stages[0].TotalSeconds-8e-7) > 1e-15 {
		t.Errorf("switch stage = %+v, want count 2 total 8e-7", stages[0])
	}
	if got := stages[0].MeanSeconds(); math.Abs(got-4e-7) > 1e-15 {
		t.Errorf("switch mean = %v, want 4e-7", got)
	}

	// Verdict counts, first-seen order.
	if got, want := bd.verdicts, []verdictCount{{"forward", 1}, {"drop", 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts = %+v, want %+v", got, want)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestTracerWriteErrorDegradesGracefully(t *testing.T) {
	tr := New(&failWriter{n: 1})
	tr.Emit(Event{T: 0, Kind: "run"})
	if tr.Err() != nil {
		t.Fatalf("first write should succeed: %v", tr.Err())
	}
	sp := tr.StartSpan(1)
	sp.Stage("service", 1e-6)
	sp.End("c", "forward")
	if tr.Err() == nil {
		t.Fatal("second write should surface the error")
	}
	// Aggregation continues past the write error.
	sp2 := tr.StartSpan(2)
	sp2.Stage("service", 1e-6)
	sp2.End("c", "forward")
	if tr.Breakdown().Spans() != 2 {
		t.Errorf("breakdown stopped at %d spans, want 2", tr.Breakdown().Spans())
	}
}

func TestKernelHook(t *testing.T) {
	tr := New(nil)
	var got Event
	tr.SetSink(func(e Event) { got = e })
	KernelHook(tr)(sim.Time(2.5), 100, 7)
	if got.Kind != "kernel" || got.T != 2.5 || got.Events != 100 || got.Pending != 7 {
		t.Errorf("kernel event = %+v", got)
	}
}

func TestSamplerWindowedUtilization(t *testing.T) {
	s := sim.New()
	tr := New(nil)
	var samples []Event
	tr.SetSink(func(e Event) {
		if e.Kind == "sample" {
			samples = append(samples, e)
		}
	})

	// A device busy exactly half of each window.
	busy := 0.0
	src := Source{
		Name:        "dev",
		Busy:        func() float64 { return busy },
		Queue:       func() int { return 3 },
		IdleWatts:   10,
		ActiveWatts: 30,
	}
	sp := NewSampler(tr, 1.0, src)
	if err := sp.Arm(s, 3.0); err != nil {
		t.Fatal(err)
	}
	// Advance busy time between ticks: +0.5 s busy per 1 s window.
	for _, at := range []sim.Time{0.5, 1.5, 2.5} {
		_ = s.At(at, func() { busy += 0.5 })
	}
	s.RunAll()

	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (ticks at 1,2,3)", len(samples))
	}
	for i, e := range samples {
		if e.Device != "dev" || e.Queue != 3 {
			t.Errorf("sample %d = %+v", i, e)
		}
		if math.Abs(e.Util-0.5) > 1e-12 {
			t.Errorf("sample %d util = %v, want 0.5", i, e.Util)
		}
		if math.Abs(e.Watts-20) > 1e-9 {
			t.Errorf("sample %d watts = %v, want 20 (idle 10 + 0.5*(30-10))", i, e.Watts)
		}
	}
	// Gauges reflect the last tick.
	if got := tr.Utilization().Devices()[0].last; !reflect.DeepEqual(got, samples[2]) {
		t.Errorf("last sample = %+v, want %+v", got, samples[2])
	}
}

func TestSamplerConstantPowerSource(t *testing.T) {
	s := sim.New()
	tr := New(nil)
	var samples []Event
	tr.SetSink(func(e Event) {
		if e.Kind == "sample" {
			samples = append(samples, e)
		}
	})
	sp := NewSampler(tr, 1.0, Source{Name: "nic", IdleWatts: 8, ActiveWatts: 8})
	if err := sp.Arm(s, 1.0); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	if samples[0].Util != 0 || samples[0].Watts != 8 {
		t.Errorf("constant source sample = %+v, want util 0 watts 8", samples[0])
	}
}

func TestSamplerRejectsNonPositivePeriod(t *testing.T) {
	s := sim.New()
	sp := NewSampler(New(nil), 0)
	if err := sp.Arm(s, 1); err == nil {
		t.Error("Arm with zero period should fail")
	}
}

func TestSamplerNilTracerArmsNothing(t *testing.T) {
	s := sim.New()
	sp := NewSampler(nil, 1.0, Source{Name: "dev"})
	if err := sp.Arm(s, 10); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if s.Processed() != 0 {
		t.Errorf("nil tracer scheduled %d events, want 0", s.Processed())
	}
}
