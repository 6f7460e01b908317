package sim

import (
	"sort"
	"testing"
)

// TestHeapPopsInStableSortOrder checks the value heap against the order
// it must reproduce: thousands of events on a handful of timestamps
// (heavy ties), scheduled up front and from inside callbacks, run
// exactly as a stable sort of the schedule calls by time orders them.
func TestHeapPopsInStableSortOrder(t *testing.T) {
	type rec struct {
		at Time
		id int
	}
	rng := NewRNG(42)
	s := New()
	var want, got []rec
	var schedule func(at Time)
	schedule = func(at Time) {
		r := rec{at: at, id: len(want)}
		want = append(want, r)
		if err := s.At(at, func() {
			got = append(got, r)
			// One in four events schedules a successor at or just
			// after the current time, so ties also arise mid-run.
			if len(want) < 8000 && rng.Intn(4) == 0 {
				schedule(s.Now() + Time(rng.Intn(2)))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		schedule(Time(rng.Intn(16)))
	}
	s.RunAll()

	// Schedule calls happen in id order, so a stable sort by time is the
	// (at, seq) order the kernel promises.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAtRunSteadyStateAllocFree pins the zero-allocation kernel: once
// the queue has grown to its working depth, scheduling and running
// events allocates nothing.
func TestAtRunSteadyStateAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		if err := s.At(Time(i), fn); err != nil {
			t.Fatal(err)
		}
	}
	s.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			_ = s.At(s.Now()+Time(i%4), fn)
		}
		s.Run(s.Now() + 4)
	})
	if allocs != 0 {
		t.Errorf("32 At calls and a Run allocate %v times at steady state, want 0", allocs)
	}
}
