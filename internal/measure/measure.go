// Package measure provides the meters a benchmark harness attaches to a
// simulated deployment: throughput and loss counting, latency capture
// into HDR histograms, and per-flow fairness accounting. The meters
// produce the performance half of the (performance, cost) points the
// comparison methodology consumes.
package measure

import (
	"fmt"
	"sort"
	"time"

	"fairbench/internal/packet"
	"fairbench/internal/perf"
	"fairbench/internal/sim"
)

// ThroughputMeter counts offered, processed and lost packets/bits over
// a simulated window.
type ThroughputMeter struct {
	start, end sim.Time
	started    bool

	// Offered counts everything the traffic source emitted.
	OfferedPackets, OfferedBits uint64
	// Processed counts packets the system completed work on — whether
	// the verdict was forward or an intended policy drop. This is the
	// "useful work" rate.
	ProcessedPackets, ProcessedBits uint64
	// Forwarded counts packets that left the system (accept/rewrite).
	ForwardedPackets, ForwardedBits uint64
	// Lost counts packets dropped due to overload (queue or pipeline
	// overflow) — the loss RFC 2544 throughput searches drive to zero.
	LostPackets uint64
}

// Start marks the beginning of the measurement window.
func (m *ThroughputMeter) Start(at sim.Time) {
	m.start = at
	m.started = true
}

// Stop marks the end of the window.
func (m *ThroughputMeter) Stop(at sim.Time) { m.end = at }

// Window returns the measurement duration.
func (m *ThroughputMeter) Window() time.Duration {
	if !m.started || m.end <= m.start {
		return 0
	}
	return (m.end - m.start).Duration()
}

// Offer records an offered packet of frameBytes.
func (m *ThroughputMeter) Offer(frameBytes int) {
	m.OfferedPackets++
	m.OfferedBits += uint64(frameBytes) * 8
}

// Process records a completed packet; forwarded says whether it left
// the system (vs an intended policy drop).
func (m *ThroughputMeter) Process(frameBytes int, forwarded bool) {
	m.ProcessedPackets++
	m.ProcessedBits += uint64(frameBytes) * 8
	if forwarded {
		m.ForwardedPackets++
		m.ForwardedBits += uint64(frameBytes) * 8
	}
}

// Lose records an overload drop.
func (m *ThroughputMeter) Lose() { m.LostPackets++ }

// LossFraction returns lost/offered, the RFC 2544 loss figure.
func (m *ThroughputMeter) LossFraction() float64 {
	if m.OfferedPackets == 0 {
		return 0
	}
	return float64(m.LostPackets) / float64(m.OfferedPackets)
}

// Processed returns the processed-work throughput over the window.
func (m *ThroughputMeter) Processed() perf.Throughput {
	return perf.Throughput{Bits: m.ProcessedBits, Packets: m.ProcessedPackets, Elapsed: m.Window()}
}

// Forwarded returns the forwarded throughput over the window.
func (m *ThroughputMeter) Forwarded() perf.Throughput {
	return perf.Throughput{Bits: m.ForwardedBits, Packets: m.ForwardedPackets, Elapsed: m.Window()}
}

// Offered returns the offered load over the window.
func (m *ThroughputMeter) Offered() perf.Throughput {
	return perf.Throughput{Bits: m.OfferedBits, Packets: m.OfferedPackets, Elapsed: m.Window()}
}

// String summarises the meter.
func (m *ThroughputMeter) String() string {
	return fmt.Sprintf("offered %s, processed %s, loss %.3f%%",
		m.Offered(), m.Processed(), m.LossFraction()*100)
}

// LatencyMeter captures per-packet latencies into an HDR histogram
// (nanosecond units).
type LatencyMeter struct {
	hist *perf.Histogram
}

// NewLatencyMeter builds a meter with default histogram resolution.
func NewLatencyMeter() *LatencyMeter {
	return &LatencyMeter{hist: perf.NewHistogram()}
}

// RecordSeconds records a latency observed in seconds.
func (l *LatencyMeter) RecordSeconds(s float64) error {
	return l.hist.Record(s * 1e9)
}

// Summary returns distribution statistics in nanoseconds.
func (l *LatencyMeter) Summary() perf.Summary { return l.hist.Summarize() }

// P50Micros and P99Micros return common quantiles in microseconds.
func (l *LatencyMeter) P50Micros() float64 { return l.hist.Quantile(0.5) / 1e3 }

// P99Micros returns the 99th percentile latency in microseconds.
func (l *LatencyMeter) P99Micros() float64 { return l.hist.Quantile(0.99) / 1e3 }

// FairnessMeter accumulates per-flow forwarded bytes for Jain's index.
type FairnessMeter struct {
	bytes map[packet.FiveTuple]uint64
}

// NewFairnessMeter builds a meter.
func NewFairnessMeter() *FairnessMeter {
	return &FairnessMeter{bytes: make(map[packet.FiveTuple]uint64)}
}

// Record adds forwarded bytes for a flow.
func (f *FairnessMeter) Record(ft packet.FiveTuple, frameBytes int) {
	f.bytes[ft] += uint64(frameBytes)
}

// JFI computes Jain's fairness index over the per-flow byte counts.
// Allocations are sorted before summing: float addition is not
// associative, so map iteration order would otherwise leak into the
// index's low bits and break byte-identical replay.
func (f *FairnessMeter) JFI() float64 {
	alloc := make([]float64, 0, len(f.bytes))
	for _, b := range f.bytes {
		alloc = append(alloc, float64(b))
	}
	sort.Float64s(alloc)
	return perf.Jain(alloc)
}
