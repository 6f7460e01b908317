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

// Callback names a function registered with a Sim (Register).
// Scheduling it (AtCallback) writes no heap pointer, so it costs the
// same whether or not the garbage collector is marking: while a
// collection marks, every pointer store runs a write barrier.
type Callback int32

// event is a scheduled callback's place in the queue, stored by value:
// scheduling allocates nothing once the queue has grown to the run's
// peak depth. Events hold no pointers (the function lives in
// Sim.slots), so the heap's sift moves need no write barrier.
type event struct {
	at   Time
	seq  uint64
	call Callback
	// once marks a callback scheduled with At, whose slot is released
	// when it fires.
	once bool
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

// eventQueue is a binary min-heap of events stored by value in h[:n],
// ordered by before. Tracking the length in n, not in the slice
// header, means push and pop write no pointer once h has grown to the
// run's peak depth.
type eventQueue struct {
	h []event
	n int
}

// push inserts e, sifting a hole up from the new leaf.
func (q *eventQueue) push(e event) {
	if q.n == len(q.h) {
		//fairlint:allow hotalloc event queue reaches steady-state capacity; heap growth is amortized across the run
		q.h = append(q.h, e)
	}
	h := q.h
	i := q.n
	q.n++
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
	h := q.h
	top := h[0]
	q.n--
	n := q.n
	last := h[n]
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

// slot holds a callback: a registered one for good, or one scheduled
// with At until it fires, after which the slot joins the free list.
type slot struct {
	fn   func()
	next Callback // free-list link
}

// TraceFunc observes kernel progress: it receives the virtual clock,
// the number of events processed so far, and the pending queue depth.
// Hooks fire after an event's callback has run, so the reported state
// includes anything the event scheduled.
type TraceFunc func(now Time, processed uint64, pending int)

// Sim is a discrete-event simulator. Not safe for concurrent use: a
// simulation is a single logical timeline.
type Sim struct {
	now    Time
	queue  eventQueue
	slots  []slot
	free   Callback // head of the free slot list; noSlot when empty
	seq    uint64
	events uint64
	halted bool
	trace  TraceFunc
}

// noSlot ends the free slot list.
const noSlot Callback = -1

// New returns a simulator at time zero.
func New() *Sim { return &Sim{free: noSlot} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.events }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn to run once at absolute simulated time t. Events at
// equal times run in scheduling order.
func (s *Sim) At(t Time, fn func()) error {
	if err := s.check(t); err != nil {
		return err
	}
	c := s.free
	if c == noSlot {
		c = s.Register(fn)
	} else {
		s.free = s.slots[c].next
		s.slots[c].fn = fn
	}
	s.queue.push(event{at: t, seq: s.seq, call: c, once: true})
	s.seq++
	return nil
}

// Register makes fn a callback that AtCallback can schedule any number
// of times. Paths that schedule the same function for every packet
// register it once.
func (s *Sim) Register(fn func()) Callback {
	s.slots = append(s.slots, slot{fn: fn})
	return Callback(len(s.slots) - 1)
}

// AtCallback schedules the registered callback c at absolute simulated
// time t, ordered like At.
//
//fairbench:hotpath alloc gate row sim-event-throughput
func (s *Sim) AtCallback(t Time, c Callback) error {
	if err := s.check(t); err != nil {
		return err
	}
	s.queue.push(event{at: t, seq: s.seq, call: c})
	s.seq++
	return nil
}

// check rejects event times in the past, NaN and infinities.
func (s *Sim) check(t Time) error {
	if t < s.now {
		return fmt.Errorf("%w: now=%v, requested=%v", ErrPastEvent, s.now, t)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	return nil
}

// fire runs event e's callback, first releasing an At slot.
func (s *Sim) fire(e event) {
	fn := s.slots[e.call].fn
	if e.once {
		s.slots[e.call] = slot{next: s.free}
		s.free = e.call
	}
	fn()
}

// traceEvery throttles the kernel progress hook: one call per this many
// executed events keeps traces compact while still showing
// virtual-clock progress and queue depth.
const traceEvery = 256

// SetTrace installs a kernel progress hook, invoked after every
// traceEvery-th executed event. A nil fn disables tracing. The hook
// adds one branch per event when installed and nothing when not, so
// untraced runs are unaffected.
func (s *Sim) SetTrace(fn TraceFunc) {
	s.trace = fn
}

// traceTick fires the kernel hook when due.
func (s *Sim) traceTick() {
	if s.trace != nil && s.events%traceEvery == 0 {
		s.trace(s.now, s.events, s.queue.n)
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
//fairbench:hotpath alloc gate row sim-event-throughput
func (s *Sim) Run(horizon Time) {
	s.halted = false
	for s.queue.n > 0 && !s.halted {
		if s.queue.h[0].at > horizon {
			break
		}
		next := s.queue.pop()
		s.now = next.at
		s.events++
		s.fire(next)
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
//fairbench:hotpath alloc gate row sim-event-throughput
func (s *Sim) RunAll() {
	s.halted = false
	for s.queue.n > 0 && !s.halted {
		next := s.queue.pop()
		s.now = next.at
		s.events++
		s.fire(next)
		s.traceTick()
	}
}
