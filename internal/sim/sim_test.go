package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	mustAt := func(at Time, id int) {
		t.Helper()
		if err := s.At(at, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	mustAt(3, 3)
	mustAt(1, 1)
	mustAt(2, 2)
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunAll()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	s := New()
	_ = s.At(10, func() {})
	s.RunAll()
	if err := s.At(5, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event err = %v", err)
	}
	if err := s.At(Time(math.NaN()), func() {}); err == nil {
		t.Error("NaN time should fail")
	}
	if err := s.At(Time(math.Inf(1)), func() {}); err == nil {
		t.Error("infinite time should fail")
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	ran := 0
	_ = s.At(1, func() { ran++ })
	_ = s.At(2, func() { ran++ })
	_ = s.At(10, func() { ran++ })
	s.Run(5)
	if ran != 2 {
		t.Errorf("ran %d events before horizon, want 2", ran)
	}
	if s.Now() != 5 {
		t.Errorf("clock should settle at the horizon: %v", s.Now())
	}
	if s.queue.n != 1 {
		t.Errorf("Pending = %d, want 1", s.queue.n)
	}
	// Resuming past the horizon runs the remaining event.
	s.Run(20)
	if ran != 3 || s.Now() != 20 {
		t.Errorf("after resume: ran=%d now=%v", ran, s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var times []Time
	var chain func()
	chain = func() {
		times = append(times, s.Now())
		if len(times) < 5 {
			if err := s.At(s.Now()+1, chain); err != nil {
				t.Error(err)
			}
		}
	}
	_ = s.At(0, chain)
	s.RunAll()
	want := []Time{0, 1, 2, 3, 4}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestHalt(t *testing.T) {
	s := New()
	ran := 0
	_ = s.At(1, func() { ran++; s.Halt() })
	_ = s.At(2, func() { ran++ })
	s.RunAll()
	if ran != 1 {
		t.Errorf("Halt should stop the loop: ran=%d", ran)
	}
	s.RunAll()
	if ran != 2 {
		t.Errorf("resume after halt: ran=%d", ran)
	}
}

func TestTimeDuration(t *testing.T) {
	if Time(1.5).Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v", Time(1.5).Duration())
	}
	if Time(2).Seconds() != 2 {
		t.Error("Seconds")
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed and same construction order → identical event traces.
	run := func() []float64 {
		s := New()
		rng := NewRNG(42)
		var trace []float64
		var gen func()
		n := 0
		gen = func() {
			trace = append(trace, s.Now().Seconds(), rng.Float64())
			n++
			if n < 100 {
				_ = s.At(s.Now()+Time(rng.Exp(10)), gen)
			}
		}
		_ = s.At(0, gen)
		s.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSetTraceHook(t *testing.T) {
	s := New()
	type tick struct {
		at        Time
		processed uint64
		pending   int
	}
	var ticks []tick
	s.SetTrace(func(now Time, processed uint64, pending int) {
		ticks = append(ticks, tick{now, processed, pending})
	})
	// Throttled: fires after events traceEvery and 2·traceEvery only.
	const n = 2*traceEvery + 1
	for i := 1; i <= n; i++ {
		if err := s.At(Time(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	s.RunAll()
	if len(ticks) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(ticks))
	}
	for i, tk := range ticks {
		k := uint64(i+1) * traceEvery
		if tk.processed != k {
			t.Errorf("tick %d processed = %d, want %d", i, tk.processed, k)
		}
		if tk.at != Time(k) {
			t.Errorf("tick %d at = %v, want %v", i, tk.at, Time(k))
		}
		if tk.pending != int(n-k) {
			t.Errorf("tick %d pending = %d, want %d", i, tk.pending, n-k)
		}
	}

	// Disabled: nil fn stops firing.
	s.SetTrace(nil)
	for i := 1; i <= traceEvery; i++ {
		_ = s.At(s.Now()+Time(i), func() {})
	}
	s.RunAll()
	if len(ticks) != 2 {
		t.Error("nil trace fn should disable the hook")
	}
}

// TestAtCallbackOrdersWithAt checks registered callbacks against one-shot
// ones: at equal times both run in scheduling order, a registered
// callback runs once per scheduling, rejects the times At rejects, and
// At's slots are reused once their events fire.
func TestAtCallbackOrdersWithAt(t *testing.T) {
	s := New()
	var got []string
	cb := s.Register(func() { got = append(got, "cb") })
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		if err := s.At(1, func() { got = append(got, name) }); err != nil {
			t.Fatal(err)
		}
		if err := s.AtCallback(1, cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AtCallback(0.5, cb); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if want := "cb a cb b cb c cb"; strings.Join(got, " ") != want {
		t.Errorf("ran %q, want %q", strings.Join(got, " "), want)
	}
	if err := s.AtCallback(0, cb); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past registered callback: err = %v, want ErrPastEvent", err)
	}
	if err := s.AtCallback(Time(math.NaN()), cb); err == nil {
		t.Error("NaN time should fail")
	}
	// The three fired At slots are free again: three more one-shot
	// events take no new slot.
	slots := len(s.slots)
	for i := 0; i < 3; i++ {
		if err := s.At(2, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.slots) != slots {
		t.Errorf("slots grew from %d to %d; fired At slots were not reused", slots, len(s.slots))
	}
}
