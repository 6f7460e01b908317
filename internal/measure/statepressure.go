package measure

import (
	"fmt"
	"sort"
	"strings"
)

// State-pressure metering. Overload experiments need more than a loss
// fraction: they need to know *whose* packets were lost (collateral
// damage to legitimate flows vs successfully-shed attack traffic), how
// full the state tables ran, and how fast entries were being evicted.
// StateMeter tracks per-class traffic outcomes and samples bounded
// state tables over simulated time; its summary separates goodput
// (delivered legitimate traffic) from raw throughput.

// StateLegitClass is the traffic class counted as legitimate for
// goodput and collateral-damage accounting. An empty class is treated
// as legitimate too, so meters fed by class-agnostic generators
// degrade to plain goodput==throughput accounting.
const StateLegitClass = "legit"

// StateProbe exposes one bounded state table to periodic sampling.
// Occupancy and Evictions are closures so the meter never holds a
// reference to device internals.
type StateProbe struct {
	// Name labels the table ("conntrack", "offload-table", ...).
	Name string
	// Capacity is the table bound (entries).
	Capacity int
	// Occupancy returns the current live-entry count.
	Occupancy func() int
	// Evictions returns the cumulative eviction count.
	Evictions func() uint64
}

// StateClassCounts accumulates outcomes for one traffic class.
type StateClassCounts struct {
	// Offered counts packets entering the system.
	Offered uint64
	// Delivered counts packets forwarded out; Dropped counts packets
	// the system completed work on and intentionally discarded (policy
	// drops, overflow refusals); Lost counts packets no component could
	// take.
	Delivered, Dropped, Lost uint64
	// OfferedBytes and DeliveredBytes carry the byte totals.
	OfferedBytes, DeliveredBytes uint64
}

// StateSample is one periodic snapshot of every probed table, in probe
// registration order.
type StateSample struct {
	// T is the sample's simulated time in seconds.
	T float64
	// Occupancy and Evictions are parallel to the meter's probes.
	Occupancy []int
	Evictions []uint64
}

// StateMeter tracks per-class outcomes and table-pressure series for
// one run. A nil *StateMeter is valid and turns every method into a
// no-op, mirroring AvailabilityMeter's convention so the hot path pays
// nothing when unmetered.
type StateMeter struct {
	classes map[string]*StateClassCounts
	probes  []StateProbe
	samples []StateSample
}

// NewStateMeter builds an empty meter.
func NewStateMeter() *StateMeter {
	return &StateMeter{classes: make(map[string]*StateClassCounts)}
}

// AddProbe registers a table for periodic sampling.
func (m *StateMeter) AddProbe(p StateProbe) {
	if m == nil {
		return
	}
	m.probes = append(m.probes, p)
}

func (m *StateMeter) class(name string) *StateClassCounts {
	if name == "" {
		name = StateLegitClass
	}
	c := m.classes[name]
	if c == nil {
		//fairlint:allow hotalloc one record per traffic class, created when the class is first seen
		c = &StateClassCounts{}
		m.classes[name] = c
	}
	return c
}

// Offer records a packet of the class entering the system. Nil-safe.
func (m *StateMeter) Offer(class string, bytes int) {
	if m == nil {
		return
	}
	c := m.class(class)
	c.Offered++
	c.OfferedBytes += uint64(bytes)
}

// Deliver records a packet forwarded out. Nil-safe.
func (m *StateMeter) Deliver(class string, bytes int) {
	if m == nil {
		return
	}
	c := m.class(class)
	c.Delivered++
	c.DeliveredBytes += uint64(bytes)
}

// Drop records an intentional discard (policy drop or attributed
// overflow refusal). Nil-safe.
func (m *StateMeter) Drop(class string) {
	if m == nil {
		return
	}
	m.class(class).Dropped++
}

// Lose records a packet no component could take. Nil-safe.
func (m *StateMeter) Lose(class string) {
	if m == nil {
		return
	}
	m.class(class).Lost++
}

// Sample snapshots every probed table at simulated time t. Nil-safe.
func (m *StateMeter) Sample(t float64) {
	if m == nil || len(m.probes) == 0 {
		return
	}
	s := StateSample{T: t, Occupancy: make([]int, len(m.probes)), Evictions: make([]uint64, len(m.probes))}
	for i, p := range m.probes {
		if p.Occupancy != nil {
			s.Occupancy[i] = p.Occupancy()
		}
		if p.Evictions != nil {
			s.Evictions[i] = p.Evictions()
		}
	}
	m.samples = append(m.samples, s)
}

// StateClassSummary is one class's aggregated outcomes.
type StateClassSummary struct {
	Class string
	StateClassCounts
}

// StateTableSummary aggregates one probe's pressure series.
type StateTableSummary struct {
	Name     string
	Capacity int
	// FinalOccupancy and PeakOccupancy come from the sampled series.
	FinalOccupancy, PeakOccupancy int
	// OccupancyFraction is PeakOccupancy/Capacity (0 for an unbounded
	// probe).
	OccupancyFraction float64
	// Evictions is the final cumulative count; EvictionsPerSecond
	// averages it over the run.
	Evictions          uint64
	EvictionsPerSecond float64
}

// StateSummary is the aggregated state-pressure measurement of one run.
type StateSummary struct {
	// DurationSeconds is the measurement window.
	DurationSeconds float64
	// Classes lists per-class outcomes sorted by class name (stable
	// artifact ordering; never range the map directly).
	Classes []StateClassSummary
	// Tables lists per-probe pressure summaries in registration order.
	Tables []StateTableSummary
	// Samples is the raw occupancy series for curve artifacts.
	Samples []StateSample
	// GoodputPps/GoodputGbps count delivered *legitimate* traffic only;
	// ThroughputPps/ThroughputGbps count everything delivered. The gap
	// between the two is successfully-forwarded attack traffic.
	GoodputPps, GoodputGbps       float64
	ThroughputPps, ThroughputGbps float64
	// CollateralFraction is (dropped+lost)/offered over legitimate
	// traffic: the share of legitimate packets the system failed, the
	// overload experiments' headline damage figure.
	CollateralFraction float64
}

// Summarize aggregates the meter over a run of the given duration. It
// returns ErrEmptyWindow when the meter saw no traffic.
func (m *StateMeter) Summarize(durationSeconds float64) (StateSummary, error) {
	if m == nil || len(m.classes) == 0 {
		return StateSummary{}, ErrEmptyWindow
	}
	if !(durationSeconds > 0) {
		return StateSummary{}, fmt.Errorf("measure: invalid state-pressure window %v", durationSeconds)
	}
	s := StateSummary{DurationSeconds: durationSeconds, Samples: m.samples}
	names := make([]string, 0, len(m.classes))
	for name := range m.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var legit StateClassCounts
	var deliveredPkts, deliveredBytes uint64
	var offered uint64
	for _, name := range names {
		c := *m.classes[name]
		s.Classes = append(s.Classes, StateClassSummary{Class: name, StateClassCounts: c})
		deliveredPkts += c.Delivered
		deliveredBytes += c.DeliveredBytes
		offered += c.Offered
		if name == StateLegitClass {
			legit = c
		}
	}
	if offered == 0 {
		return StateSummary{}, ErrEmptyWindow
	}
	s.GoodputPps = float64(legit.Delivered) / durationSeconds
	s.GoodputGbps = float64(legit.DeliveredBytes) * 8 / durationSeconds / 1e9
	s.ThroughputPps = float64(deliveredPkts) / durationSeconds
	s.ThroughputGbps = float64(deliveredBytes) * 8 / durationSeconds / 1e9
	if legit.Offered > 0 {
		s.CollateralFraction = float64(legit.Dropped+legit.Lost) / float64(legit.Offered)
	}
	for i, p := range m.probes {
		t := StateTableSummary{Name: p.Name, Capacity: p.Capacity}
		for _, sample := range m.samples {
			if sample.Occupancy[i] > t.PeakOccupancy {
				t.PeakOccupancy = sample.Occupancy[i]
			}
		}
		if p.Occupancy != nil {
			t.FinalOccupancy = p.Occupancy()
			if t.FinalOccupancy > t.PeakOccupancy {
				t.PeakOccupancy = t.FinalOccupancy
			}
		}
		if p.Evictions != nil {
			t.Evictions = p.Evictions()
		}
		if p.Capacity > 0 {
			t.OccupancyFraction = float64(t.PeakOccupancy) / float64(p.Capacity)
		}
		t.EvictionsPerSecond = float64(t.Evictions) / durationSeconds
		s.Tables = append(s.Tables, t)
	}
	return s, nil
}

// String renders the headline figures: goodput vs throughput, the
// collateral fraction, and each table's pressure.
func (s StateSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goodput %.3f Gb/s of %.3f Gb/s delivered (collateral %.4f)",
		s.GoodputGbps, s.ThroughputGbps, s.CollateralFraction)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "; %s %d/%d peak (%.0f evictions/s)",
			t.Name, t.PeakOccupancy, t.Capacity, t.EvictionsPerSecond)
	}
	return b.String()
}
