// Package obs is the observability layer of the measurement pipeline:
// structured event tracing with per-packet lifecycle spans, a
// virtual-time periodic sampler, and an end-of-run metrics export
// (per-verdict span counts, last-sample device gauges) read from the
// span and sample aggregates.
//
// The paper's §5 call to action asks for "tools and approaches for
// measuring" performance-cost points; this package makes the measured
// numbers auditable. Instead of opaque aggregates, a traced run yields
// a JSONL event stream attributing every packet's end-to-end latency to
// pipeline stages (switch pipeline → device queue → service → fixed
// I/O) and recording per-device utilization, queue depth and
// instantaneous power over virtual time.
//
// Determinism is inherited from the simulator: every event carries
// virtual time, emission order follows simulated causality, and the
// sampler runs as scheduled simulation events — so the same seed
// produces a byte-identical trace. Everything is nil-safe: a nil
// *Tracer (and the nil *Span it hands out) turns every hook into a
// no-op, keeping the hot path unaffected when tracing is disabled.
package obs

import (
	"encoding/json"
	"io"

	"fairbench/internal/sim"
)

// StageDur is one attributed segment of a packet's end-to-end latency.
type StageDur struct {
	// Name identifies the stage ("switch", "queue", "service", "io").
	Name string `json:"name"`
	// Dur is the stage's duration in seconds of virtual time.
	Dur float64 `json:"dur"`
}

// Event is one structured trace record. All kinds share the envelope
// (T, Kind); the remaining fields are kind-specific and omitted when
// unused, keeping the JSONL compact:
//
//	run     — a measurement run started (Device = deployment name)
//	run-end — the run finished (Events = kernel events processed)
//	span    — one packet's lifecycle (ID, Device, Verdict, Stages; Dur
//	          is the end-to-end latency, the sum of the stage durations)
//	kernel  — simulation-kernel progress (Events processed, Pending
//	          queue depth at virtual time T)
//	sample  — one periodic device sample (Device, Util, Queue, Watts)
type Event struct {
	T       float64    `json:"t"`
	Kind    string     `json:"kind"`
	ID      uint64     `json:"id,omitempty"`
	Device  string     `json:"device,omitempty"`
	Verdict string     `json:"verdict,omitempty"`
	Dur     float64    `json:"dur,omitempty"`
	Stages  []StageDur `json:"stages,omitempty"`
	Events  uint64     `json:"events,omitempty"`
	Pending int        `json:"pending,omitempty"`
	Util    float64    `json:"util,omitempty"`
	Queue   int        `json:"queue,omitempty"`
	Watts   float64    `json:"watts,omitempty"`
}

// Tracer collects events, renders them as JSONL to an optional writer,
// and aggregates span statistics. The zero value is not usable; build
// one with New. A nil *Tracer is valid and turns every method into a
// no-op, which is how instrumented code stays free when tracing is off.
//
// Not safe for concurrent use: a trace follows one simulation timeline.
type Tracer struct {
	w       io.Writer
	sink    func(Event)
	bd      Breakdown
	us      UtilSummary
	spanSeq uint64
	events  uint64
	err     error
}

// New builds a tracer writing JSONL to w. A nil w keeps events
// in-process only (breakdown, utilization and sink still observe them).
func New(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// SetSink registers fn to receive every event in addition to the JSONL
// writer — the hook in-process consumers (timeline rendering, tests)
// use instead of re-parsing the file.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.sink = fn
}

// Events returns the number of events emitted so far.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Err returns the first write/encode error, if any. Emission stops
// writing after the first error but keeps aggregating, so a full disk
// degrades the trace file without corrupting the measurement.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Breakdown returns the per-stage latency aggregation over all spans
// emitted so far (nil for a nil tracer).
func (t *Tracer) Breakdown() *Breakdown {
	if t == nil {
		return nil
	}
	return &t.bd
}

// Emit records one event. Nil-safe.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.events++
	if e.Kind == "sample" {
		t.us.add(e)
	}
	if t.sink != nil {
		t.sink(e)
	}
	if t.w == nil || t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Span is one packet's lifecycle under construction: stages are
// appended as the packet traverses the pipeline and End emits the
// completed record. A nil *Span (from a nil tracer) is a no-op.
type Span struct {
	tr     *Tracer
	id     uint64
	start  float64
	stages []StageDur
}

// StartSpan opens a packet span at virtual time at (seconds). Returns
// nil when the tracer is nil.
func (t *Tracer) StartSpan(at float64) *Span {
	if t == nil {
		return nil
	}
	t.spanSeq++
	return &Span{tr: t, id: t.spanSeq, start: at}
}

// Stage appends one attributed latency segment. Nil-safe.
func (sp *Span) Stage(name string, dur float64) {
	if sp == nil {
		return
	}
	sp.stages = append(sp.stages, StageDur{Name: name, Dur: dur})
}

// End completes the span with the device that decided the packet's fate
// and the verdict ("forward", "drop" for policy drops, "loss" for
// overload/parse drops). The emitted event's Dur is the sum of the
// stage durations — by construction equal to the packet's recorded
// end-to-end latency. Nil-safe.
func (sp *Span) End(device, verdict string) {
	if sp == nil {
		return
	}
	var total float64
	for _, st := range sp.stages {
		total += st.Dur
	}
	sp.tr.bd.add(sp.stages, total, verdict)
	sp.tr.Emit(Event{
		T: sp.start, Kind: "span", ID: sp.id,
		Device: device, Verdict: verdict, Dur: total, Stages: sp.stages,
	})
}

// KernelHook adapts the tracer into a simulation-kernel trace function
// recording events processed, pending queue depth and virtual-clock
// progress. Safe to build over a nil tracer (the hook no-ops).
func KernelHook(tr *Tracer) sim.TraceFunc {
	return func(now sim.Time, processed uint64, pending int) {
		tr.Emit(Event{T: now.Seconds(), Kind: "kernel", Events: processed, Pending: pending})
	}
}

// StageStat aggregates one stage across all completed spans.
type StageStat struct {
	Name         string
	Count        uint64
	TotalSeconds float64
}

// MeanSeconds returns the stage's mean duration per occurrence.
func (s StageStat) MeanSeconds() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalSeconds / float64(s.Count)
}

// verdictCount is the number of completed spans with one verdict.
type verdictCount struct {
	verdict string
	spans   uint64
}

// Breakdown accumulates the per-stage latency attribution of a trace:
// for each stage name, how often it occurred and how much virtual time
// it accounted for, plus the span count per verdict. Stage and verdict
// order is first-seen, which is deterministic because the simulation
// is.
type Breakdown struct {
	order        []string
	byName       map[string]*StageStat
	verdicts     []verdictCount
	spans        uint64
	totalSeconds float64
}

func (b *Breakdown) add(stages []StageDur, total float64, verdict string) {
	if b.byName == nil {
		b.byName = make(map[string]*StageStat)
	}
	for _, st := range stages {
		agg := b.byName[st.Name]
		if agg == nil {
			agg = &StageStat{Name: st.Name}
			b.byName[st.Name] = agg
			b.order = append(b.order, st.Name)
		}
		agg.Count++
		agg.TotalSeconds += st.Dur
	}
	b.spans++
	b.totalSeconds += total
	for i := range b.verdicts {
		if b.verdicts[i].verdict == verdict {
			b.verdicts[i].spans++
			return
		}
	}
	b.verdicts = append(b.verdicts, verdictCount{verdict: verdict, spans: 1})
}

// Spans returns the number of completed spans.
func (b *Breakdown) Spans() uint64 {
	if b == nil {
		return 0
	}
	return b.spans
}

// TotalSeconds returns the summed end-to-end latency across all spans.
func (b *Breakdown) TotalSeconds() float64 {
	if b == nil {
		return 0
	}
	return b.totalSeconds
}

// Stages returns the per-stage aggregates in first-seen order.
func (b *Breakdown) Stages() []StageStat {
	if b == nil {
		return nil
	}
	out := make([]StageStat, 0, len(b.order))
	for _, name := range b.order {
		out = append(out, *b.byName[name])
	}
	return out
}
