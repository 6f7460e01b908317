package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestRecorderStreamRoundTrip(t *testing.T) {
	clk := NewFakeClock(t0)
	var buf bytes.Buffer
	r := New(&buf, Options{Clock: clk, Label: "unit", Fingerprint: "fp1", Jobs: 4, Cells: 2})

	clk.Advance(10 * time.Millisecond)
	r.Event(Event{Ev: EvCellStart, Cell: "a", Worker: 1})
	clk.Advance(5 * time.Millisecond)
	r.Event(Event{Ev: EvCellFinish, Cell: "a", Worker: 1, Status: "ok", Attempts: 1, WallMS: 5})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := log.Header
	if h.Telemetry != Format || h.Label != "unit" || h.Fingerprint != "fp1" || h.Jobs != 4 || h.Cells != 2 {
		t.Errorf("header = %+v", h)
	}
	if h.Start != t0.Format(time.RFC3339Nano) {
		t.Errorf("start = %q, want fake-clock time", h.Start)
	}
	if len(log.Events) != 3 { // start, finish, run-end
		t.Fatalf("events = %d, want 3: %+v", len(log.Events), log.Events)
	}
	if log.Events[0].TMS != 10 || log.Events[1].TMS != 15 {
		t.Errorf("timestamps = %v, %v; want 10, 15 (fake-clock ms)", log.Events[0].TMS, log.Events[1].TMS)
	}
	if log.Events[2].Ev != EvRunEnd {
		t.Errorf("final event = %q, want run-end", log.Events[2].Ev)
	}
}

func TestSpan(t *testing.T) {
	clk := NewFakeClock(t0)
	var buf bytes.Buffer
	r := New(&buf, Options{Clock: clk, Label: "span"})
	done := r.Span()
	clk.Advance(42 * time.Millisecond)
	done(nil)
	doneErr := r.Span()
	clk.Advance(time.Millisecond)
	doneErr(errors.New("boom"))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var finishes []Event
	for _, ev := range log.Events {
		if ev.Ev == EvCellFinish {
			finishes = append(finishes, ev)
		}
	}
	if len(finishes) != 2 {
		t.Fatalf("finishes = %+v", finishes)
	}
	if finishes[0].Cell != "span" || finishes[0].Status != "ok" || finishes[0].WallMS != 42 {
		t.Errorf("ok span = %+v", finishes[0])
	}
	if finishes[1].Status != "failed" || finishes[1].Error != "boom" {
		t.Errorf("failed span = %+v", finishes[1])
	}
}

func TestSampleRecordsRuntime(t *testing.T) {
	clk := NewFakeClock(t0)
	var buf bytes.Buffer
	r := New(&buf, Options{Clock: clk, Jobs: 2})
	r.Sample()
	clk.Advance(2 * time.Second)
	r.Sample()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Event
	for _, ev := range log.Events {
		if ev.Ev == EvSample {
			samples = append(samples, ev)
		}
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	if samples[0].Goroutines <= 0 || samples[0].HeapBytes == 0 {
		t.Errorf("first sample missing runtime figures: %+v", samples[0])
	}
}

func TestParseRejectsNonTelemetry(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"journal":"other"}` + "\n")); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
	if _, err := Parse(strings.NewReader("")); !errors.Is(err, ErrFormat) {
		t.Errorf("empty stream: err = %v, want ErrFormat", err)
	}
}

func TestParseDropsTornTail(t *testing.T) {
	clk := NewFakeClock(t0)
	var buf bytes.Buffer
	r := New(&buf, Options{Clock: clk})
	r.Event(Event{Ev: EvCellStart, Cell: "a"})
	r.Event(Event{Ev: EvCellFinish, Cell: "a", Status: "ok"})
	full := buf.String()
	torn := full[:len(full)-7] + "\n" // corrupt the final line, keep it newline-terminated
	log, err := Parse(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 1 || log.Events[0].Ev != EvCellStart {
		t.Errorf("events after torn tail = %+v", log.Events)
	}
}

func TestStickyWriteError(t *testing.T) {
	clk := NewFakeClock(t0)
	w := &failAfter{n: 1}
	r := New(w, Options{Clock: clk})
	r.Event(Event{Ev: EvCellStart, Cell: "a"}) // fails
	r.Event(Event{Ev: EvCellStart, Cell: "b"}) // no-op after the sticky error
	if err := r.Close(); err == nil {
		t.Error("Close must surface the first write error")
	}
	if w.writes != 2 { // header + first failing event, nothing after
		t.Errorf("writes = %d, want 2", w.writes)
	}
}

type failAfter struct {
	n, writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestIsTelemetryFile(t *testing.T) {
	for name, want := range map[string]bool{
		FileName:        true,
		SummaryName:     true,
		GanttName:       true,
		"journal.jsonl": false,
		"figure1.svg":   false,
		"manifest.json": false,
	} {
		if got := IsTelemetryFile(name); got != want {
			t.Errorf("IsTelemetryFile(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestEventJSONOmitsUnusedFields(t *testing.T) {
	data, err := json.Marshal(Event{Ev: EvCellStart, TMS: 1, Cell: "a", Worker: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"heap_bytes", "status", "rates", "wait_ms"} {
		if strings.Contains(string(data), absent) {
			t.Errorf("cell-start JSON carries %q: %s", absent, data)
		}
	}
}
