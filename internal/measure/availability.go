package measure

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptyWindow is the typed error aggregation returns when a
// measurement window saw no traffic — instead of letting a 0/0 turn
// into NaN and silently poison downstream Pareto verdicts.
var ErrEmptyWindow = errors.New("measure: empty measurement window")

// ErrNonFinite is the typed error wrapped by CheckFinite when an
// aggregate is NaN or infinite.
var ErrNonFinite = errors.New("measure: non-finite aggregate")

// CheckFinite validates that an aggregate value is finite, returning an
// error wrapping ErrNonFinite naming the offending quantity otherwise.
// Comparison pipelines call it before measured numbers become points in
// the performance-cost plane.
func CheckFinite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s = %v", ErrNonFinite, what, v)
	}
	return nil
}

// AvailabilityMeter buckets offered traffic into fixed windows of
// simulated time and tracks, per window, how much of it the system
// resolved successfully (forwarded or intentionally policy-dropped)
// versus lost. From the per-window series it derives the
// degraded-regime figures of merit: availability, degradation depth,
// and recovery time. Outcomes are attributed to the packet's *arrival*
// window, so a fault's impact lands where the traffic it hurt arrived.
//
// A nil *AvailabilityMeter is valid and turns the recording methods
// into no-ops, mirroring the observability layer's convention.
type AvailabilityMeter struct {
	window   float64
	offered  []uint64
	resolved []uint64
}

// NewAvailabilityMeter builds a meter bucketing by windowSeconds.
func NewAvailabilityMeter(windowSeconds float64) (*AvailabilityMeter, error) {
	if !(windowSeconds > 0) || math.IsInf(windowSeconds, 0) {
		return nil, fmt.Errorf("measure: invalid availability window %v", windowSeconds)
	}
	return &AvailabilityMeter{window: windowSeconds}, nil
}

func (a *AvailabilityMeter) bucket(at float64) int {
	if at < 0 {
		at = 0
	}
	return int(at / a.window)
}

func (a *AvailabilityMeter) grow(i int) {
	for len(a.offered) <= i {
		//fairlint:allow hotalloc one bucket per window: the series grows to the run's window count, not per packet
		a.offered = append(a.offered, 0)
		//fairlint:allow hotalloc grows in step with offered
		a.resolved = append(a.resolved, 0)
	}
}

// Offer records a packet arriving at simulated time at. Nil-safe.
func (a *AvailabilityMeter) Offer(at float64) {
	if a == nil {
		return
	}
	i := a.bucket(at)
	a.grow(i)
	a.offered[i]++
}

// Resolve records the outcome for a packet that arrived at simulated
// time arrivedAt: ok means the system completed its work on the packet
// (forward or policy drop); !ok means the packet was lost. Nil-safe.
func (a *AvailabilityMeter) Resolve(arrivedAt float64, ok bool) {
	if a == nil || !ok {
		return
	}
	i := a.bucket(arrivedAt)
	a.grow(i)
	a.resolved[i]++
}

// AvailWindow is one bucket of the availability series.
type AvailWindow struct {
	// Start is the window's start in simulated seconds.
	Start float64
	// Offered and Resolved count the window's packets.
	Offered, Resolved uint64
	// Availability is Resolved/Offered (1 for an idle window).
	Availability float64
}

// AvailSummary aggregates the availability series of one run.
type AvailSummary struct {
	// WindowSeconds is the bucketing interval.
	WindowSeconds float64
	// Windows is the per-window series, in time order.
	Windows []AvailWindow
	// Availability is overall resolved/offered.
	Availability float64
	// MinWindowAvailability is the worst non-idle window.
	MinWindowAvailability float64
	// DegradationDepth is 1 - MinWindowAvailability: how deep the worst
	// service dip went.
	DegradationDepth float64
	// DegradedSeconds is the total time spent in windows below the
	// threshold.
	DegradedSeconds float64
	// RecoverySeconds spans the degraded episode: from the start of the
	// first sub-threshold window to the end of the last, i.e. how long
	// the system took to return (and stay) above threshold. Zero when
	// never degraded.
	RecoverySeconds float64
}

// availabilityThreshold is the per-window availability below which a
// window counts as degraded (three nines would be unmeasurable in short
// simulated windows; 99% is robust at these packet counts).
const availabilityThreshold = 0.99

// Summarize aggregates the series. Windows with availability below
// availabilityThreshold count as degraded. It returns ErrEmptyWindow if
// the meter saw no traffic at all.
func (a *AvailabilityMeter) Summarize() (AvailSummary, error) {
	if a == nil || len(a.offered) == 0 {
		return AvailSummary{}, ErrEmptyWindow
	}
	s := AvailSummary{WindowSeconds: a.window, MinWindowAvailability: 1}
	var offered, resolved uint64
	firstDegraded, lastDegraded := -1, -1
	for i := range a.offered {
		w := AvailWindow{
			Start:    float64(i) * a.window,
			Offered:  a.offered[i],
			Resolved: a.resolved[i],
		}
		w.Availability = 1
		if w.Offered > 0 {
			w.Availability = float64(w.Resolved) / float64(w.Offered)
		}
		offered += w.Offered
		resolved += w.Resolved
		if w.Offered > 0 && w.Availability < s.MinWindowAvailability {
			s.MinWindowAvailability = w.Availability
		}
		if w.Offered > 0 && w.Availability < availabilityThreshold {
			s.DegradedSeconds += a.window
			if firstDegraded < 0 {
				firstDegraded = i
			}
			lastDegraded = i
		}
		s.Windows = append(s.Windows, w)
	}
	if offered == 0 {
		return AvailSummary{}, ErrEmptyWindow
	}
	s.Availability = float64(resolved) / float64(offered)
	s.DegradationDepth = 1 - s.MinWindowAvailability
	if firstDegraded >= 0 {
		s.RecoverySeconds = float64(lastDegraded+1-firstDegraded) * a.window
	}
	return s, nil
}

// String summarises the headline figures.
func (s AvailSummary) String() string {
	return fmt.Sprintf("availability %.4f (min window %.4f, depth %.4f, degraded %.1fms, recovery %.1fms)",
		s.Availability, s.MinWindowAvailability, s.DegradationDepth,
		s.DegradedSeconds*1e3, s.RecoverySeconds*1e3)
}
