// Corpus for the hotalloc rule: a //fairbench:hotpath function and
// everything it reaches inside the hot-path scope must not allocate at
// steady state. The corpus sits in internal/packet, inside the default
// hot-path scope, so propagation from the annotated roots is exercised.
package hotcase

import "fmt"

// Sink models an interface-typed slot a hot path might feed.
type Sink interface{ Accept(v any) }

// Ring is the hot object: a fixed scratch array plus slices that the
// positive cases below mismanage.
type Ring struct {
	buf     [8]int
	cur     []int
	scratch []byte
	log     []int
	tmp     []int
}

// Step is the annotated root; helpers it calls are checked too.
//
//fairbench:hotpath corpus fast path
func (r *Ring) Step(s Sink, n int, parts []string, xs []byte) string {
	// Positive: boxing an int into an interface slot allocates.
	s.Accept(n)
	// Negative: pointer-shaped values fit in the interface word.
	s.Accept(&r.buf)
	// Negative: bounded append — the target was rebound to an
	// array-backed reslice in this function.
	r.cur = r.buf[:0]
	r.cur = append(r.cur, n)
	// Negative: scratch-reuse append writes into the existing backing.
	r.scratch = append(r.scratch[:0], xs...)
	// Positive: this append can grow its backing array.
	r.log = append(r.log, n)
	// Positive: the closure captures n from the enclosing scope.
	f := func() int { return n }
	// Negative: a capture-free literal stays static.
	g := func(x int) int { return x }
	r.tmp[0] = f() + g(n)
	if err := r.check(n); err != nil {
		return "bad"
	}
	r.grow()
	return r.label(parts)
}

// grow is hot by propagation from Step.
func (r *Ring) grow() {
	// Positive: make on the hot path.
	r.tmp = make([]int, 8)
	// Suppressed positive.
	//fairlint:allow hotalloc corpus demo of an amortized warm-up allocation
	r.log = append(r.log, len(r.tmp))
}

// check shows the abort-path exemption: fmt.Errorf boxes its varargs,
// but only on a path that returns a non-nil error.
func (r *Ring) check(n int) error {
	if n < 0 {
		return fmt.Errorf("hotcase: negative count %d", n)
	}
	return nil
}

// label concatenates strings in a loop — an allocation per iteration.
func (r *Ring) label(parts []string) string {
	out := ""
	for _, p := range parts {
		// Positive: string concatenation inside a loop.
		out += p
	}
	return out
}

// Cold is not annotated and not reached from any hot root: its make is
// not a finding.
func Cold() []int { return make([]int, 4) }

// event is a heap record like the one the simulation kernel once
// allocated per scheduled callback.
type event struct {
	at float64
	fn func()
}

// Queue is a pointer heap: every scheduled event is a fresh allocation.
type Queue struct {
	items []*event
	spare *event
}

// At reproduces the kernel's old schedule path.
//
//fairbench:hotpath corpus schedule path
func (q *Queue) At(at float64, fn func()) {
	// Positive: &T{} escapes into the queue on every call.
	e := &event{at: at, fn: fn}
	//fairlint:allow hotalloc corpus demo of amortized queue growth
	q.items = append(q.items, e)
	// Positive: new(T) allocates just the same.
	q.spare = new(event)
	// Negative: a composite literal stored by value allocates nothing.
	*q.spare = event{at: at}
}
