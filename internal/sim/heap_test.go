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
