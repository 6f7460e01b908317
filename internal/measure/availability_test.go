package measure

import (
	"errors"
	"math"
	"testing"
)

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("x", 1.5); err != nil {
		t.Errorf("finite value rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckFinite("x", v)
		if err == nil {
			t.Errorf("CheckFinite(%v) accepted", v)
			continue
		}
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFinite(%v) error %v does not wrap ErrNonFinite", v, err)
		}
	}
}

func TestAvailabilityMeterNilSafe(t *testing.T) {
	var a *AvailabilityMeter
	a.Offer(0.001)
	a.Resolve(0.001, true)
	if _, err := a.Summarize(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("nil meter Summarize error = %v, want ErrEmptyWindow", err)
	}
}

func TestAvailabilityMeterEmpty(t *testing.T) {
	a, err := NewAvailabilityMeter(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Summarize(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty meter Summarize error = %v, want ErrEmptyWindow", err)
	}
}

func TestNewAvailabilityMeterValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewAvailabilityMeter(w); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
}

func TestAvailabilitySummary(t *testing.T) {
	a, err := NewAvailabilityMeter(0.001)
	if err != nil {
		t.Fatal(err)
	}
	// Three windows: healthy, half-lost (the fault), healthy again.
	for i := 0; i < 10; i++ {
		at := float64(i) * 1e-4
		a.Offer(at)
		a.Resolve(at, true)
	}
	for i := 0; i < 10; i++ {
		at := 0.001 + float64(i)*1e-4
		a.Offer(at)
		a.Resolve(at, i < 5)
	}
	for i := 0; i < 10; i++ {
		at := 0.002 + float64(i)*1e-4
		a.Offer(at)
		a.Resolve(at, true)
	}
	s, err := a.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Availability, 25.0/30; math.Abs(got-want) > 1e-9 {
		t.Errorf("availability = %v, want %v", got, want)
	}
	if got := s.MinWindowAvailability; got != 0.5 {
		t.Errorf("min window availability = %v, want 0.5", got)
	}
	if got := s.DegradationDepth; got != 0.5 {
		t.Errorf("degradation depth = %v, want 0.5", got)
	}
	if got := s.DegradedSeconds; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("degraded seconds = %v, want 0.001", got)
	}
	if got := s.RecoverySeconds; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("recovery seconds = %v, want 0.001 (one degraded window)", got)
	}
	if len(s.Windows) != 3 {
		t.Errorf("windows = %d, want 3", len(s.Windows))
	}
}

func TestAvailabilityAttributedToArrivalWindow(t *testing.T) {
	a, err := NewAvailabilityMeter(0.001)
	if err != nil {
		t.Fatal(err)
	}
	// A packet arriving in window 0 is resolved (much) later; the
	// outcome must land in window 0, not in the resolution window.
	a.Offer(0.0005)
	a.Resolve(0.0005, true)
	a.Offer(0.0015)
	s, err := a.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows[0].Availability != 1 {
		t.Errorf("window 0 availability = %v, want 1", s.Windows[0].Availability)
	}
	if s.Windows[1].Availability != 0 {
		t.Errorf("window 1 availability = %v, want 0 (unresolved offer)", s.Windows[1].Availability)
	}
}

func TestAvailabilityRecoverySpansEpisode(t *testing.T) {
	a, err := NewAvailabilityMeter(0.001)
	if err != nil {
		t.Fatal(err)
	}
	// Degraded in windows 1 and 3 (healthy gap in 2): recovery spans
	// from the first degraded window to the end of the last.
	for w := 0; w < 5; w++ {
		ok := w != 1 && w != 3
		for i := 0; i < 4; i++ {
			at := float64(w)*0.001 + float64(i)*1e-4
			a.Offer(at)
			a.Resolve(at, ok || i%2 == 0)
		}
	}
	s, err := a.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DegradedSeconds; math.Abs(got-0.002) > 1e-12 {
		t.Errorf("degraded seconds = %v, want 0.002", got)
	}
	if got := s.RecoverySeconds; math.Abs(got-0.003) > 1e-12 {
		t.Errorf("recovery seconds = %v, want 0.003 (windows 1..3)", got)
	}
}
