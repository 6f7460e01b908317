// Package sim provides a deterministic discrete-event simulation kernel
// used to model heterogeneous hardware deployments (CPU hosts,
// SmartNICs, FPGAs, programmable switches) without physical testbeds.
//
// Determinism is a design requirement, not an accident: the paper's
// Principle 1 demands context-independent measurements — identical
// deployments must yield identical costs — and a simulator that gives
// the same trace for the same seed is the strongest form of that
// property. Events at equal timestamps are ordered by schedule sequence
// number, and all randomness flows from explicitly seeded streams.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is simulated time in seconds since simulation start. A float64
// gives sub-nanosecond resolution over the second-to-minutes horizons
// these simulations run.
type Time float64

// Duration converts a simulated interval to a time.Duration for
// reporting. Durations beyond ~292 years saturate.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// event is a scheduled callback. Events are stored by value in the
// queue, so scheduling one allocates nothing once the queue has grown to
// the run's peak depth.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, sequence). Sequence numbers are unique,
// so this is a strict total order and the pop order is independent of
// the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events stored by value, ordered by
// before.
type eventQueue []event

// push inserts e, sifting a hole up from the new leaf.
func (q *eventQueue) push(e event) {
	//fairlint:allow hotalloc event queue reaches steady-state capacity; heap growth is amortized across the run
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the earliest event, sifting the last leaf
// down from the root. The queue must be non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback for the collector
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// TraceFunc observes kernel progress: it receives the virtual clock,
// the number of events processed so far, and the pending queue depth.
// Hooks fire after an event's callback has run, so the reported state
// includes anything the event scheduled.
type TraceFunc func(now Time, processed uint64, pending int)

// Sim is a discrete-event simulator. Not safe for concurrent use: a
// simulation is a single logical timeline.
type Sim struct {
	now        Time
	queue      eventQueue
	seq        uint64
	events     uint64
	halted     bool
	trace      TraceFunc
	traceEvery uint64
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.events }

// Pending returns the number of scheduled, not-yet-executed events.
func (s *Sim) Pending() int { return len(s.queue) }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn to run at absolute simulated time t. Events at equal
// times run in scheduling order.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) At(t Time, fn func()) error {
	if t < s.now {
		return fmt.Errorf("%w: now=%v, requested=%v", ErrPastEvent, s.now, t)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// After schedules fn to run delta seconds from now.
func (s *Sim) After(delta float64, fn func()) error {
	if delta < 0 {
		return fmt.Errorf("%w: negative delay %v", ErrPastEvent, delta)
	}
	return s.At(s.now+Time(delta), fn)
}

// SetTrace installs a kernel progress hook, invoked after every
// `every`-th executed event (every <= 1 fires on all events). A nil fn
// disables tracing. The hook adds one branch per event when installed
// and nothing when not, so untraced runs are unaffected.
func (s *Sim) SetTrace(fn TraceFunc, every uint64) {
	s.trace = fn
	s.traceEvery = every
}

// traceTick fires the kernel hook when due.
func (s *Sim) traceTick() {
	if s.trace != nil && (s.traceEvery <= 1 || s.events%s.traceEvery == 0) {
		s.trace(s.now, s.events, len(s.queue))
	}
}

// Halt stops the run loop after the current event completes. Pending
// events remain queued; a subsequent Run resumes.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is passed, or Halt is called. The clock finishes at the
// horizon if it was not already beyond it, so rate computations over
// [0, horizon) are well-defined even when the queue drains early.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) Run(horizon Time) {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		if s.queue[0].at > horizon {
			break
		}
		next := s.queue.pop()
		s.now = next.at
		s.events++
		next.fn()
		s.traceTick()
	}
	if s.now < horizon && !s.halted {
		s.now = horizon
	}
}

// RunAll executes events until the queue is empty or Halt is called.
// Use with sources that stop generating; an unbounded source will loop
// forever.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) RunAll() {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		next := s.queue.pop()
		s.now = next.at
		s.events++
		next.fn()
		s.traceTick()
	}
}
