package measure

import (
	"math"
	"strings"
	"testing"
	"time"

	"fairbench/internal/packet"
)

func TestThroughputMeter(t *testing.T) {
	var m ThroughputMeter
	m.Start(0)
	for i := 0; i < 10; i++ {
		m.Offer(125) // 1000 bits each
	}
	for i := 0; i < 8; i++ {
		m.Process(125, i < 6) // 6 forwarded, 2 policy drops
	}
	m.Lose()
	m.Lose()
	m.Stop(1) // 1 second window

	if m.Window() != time.Second {
		t.Errorf("Window = %v", m.Window())
	}
	if got := m.Offered().BitsPerSecond(); got != 10000 {
		t.Errorf("offered = %v", got)
	}
	if got := m.Processed().BitsPerSecond(); got != 8000 {
		t.Errorf("processed = %v", got)
	}
	if got := m.Forwarded().BitsPerSecond(); got != 6000 {
		t.Errorf("forwarded = %v", got)
	}
	if got := m.LossFraction(); got != 0.2 {
		t.Errorf("loss = %v", got)
	}
	if s := m.String(); !strings.Contains(s, "loss 20.000%") {
		t.Errorf("String = %q", s)
	}
}

func TestThroughputMeterEmpty(t *testing.T) {
	var m ThroughputMeter
	if m.Window() != 0 || m.LossFraction() != 0 {
		t.Error("empty meter should be zero")
	}
	if m.Processed().BitsPerSecond() != 0 {
		t.Error("no window, no rate")
	}
}

func TestLatencyMeter(t *testing.T) {
	l := NewLatencyMeter()
	for i := 1; i <= 100; i++ {
		if err := l.RecordSeconds(float64(i) * 1e-6); err != nil {
			t.Fatal(err)
		}
	}
	if l.hist.Count() != 100 {
		t.Errorf("Count = %d", l.hist.Count())
	}
	if p50 := l.P50Micros(); math.Abs(p50-50) > 2 {
		t.Errorf("P50 = %v µs, want ≈50", p50)
	}
	if p99 := l.P99Micros(); math.Abs(p99-99) > 3 {
		t.Errorf("P99 = %v µs, want ≈99", p99)
	}
	s := l.Summary()
	if s.Min != 1000 || math.Abs(s.Max-100000) > 1 {
		t.Errorf("Summary min/max = %v/%v ns", s.Min, s.Max)
	}
	if err := l.RecordSeconds(-1); err == nil {
		t.Error("negative latency should be rejected")
	}
}

func TestFairnessMeter(t *testing.T) {
	f := NewFairnessMeter()
	flowA := packet.FiveTuple{Src: packet.Addr4{1, 1, 1, 1}, SrcPort: 1, Proto: packet.ProtoUDP}
	flowB := packet.FiveTuple{Src: packet.Addr4{2, 2, 2, 2}, SrcPort: 2, Proto: packet.ProtoUDP}
	for i := 0; i < 10; i++ {
		f.Record(flowA, 100)
		f.Record(flowB, 100)
	}
	if len(f.bytes) != 2 {
		t.Errorf("Flows = %d", len(f.bytes))
	}
	if j := f.JFI(); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal flows JFI = %v, want 1", j)
	}
	// Skew it.
	for i := 0; i < 80; i++ {
		f.Record(flowA, 100)
	}
	if j := f.JFI(); j > 0.7 {
		t.Errorf("skewed JFI = %v, want < 0.7", j)
	}
}

func TestThroughputMeterZeroLengthWindow(t *testing.T) {
	// A Stop at (or before) Start is a zero-length window: rates must
	// collapse to 0, never Inf or NaN.
	var m ThroughputMeter
	m.Start(5)
	m.Stop(5)
	m.Offer(100)
	m.Process(100, true)
	m.Lose()
	if m.Window() != 0 {
		t.Errorf("Window = %v, want 0", m.Window())
	}
	for name, tp := range map[string]func() float64{
		"offered bps":   m.Offered().BitsPerSecond,
		"processed bps": m.Processed().BitsPerSecond,
		"forwarded pps": m.Forwarded().PacketsPerSecond,
	} {
		if got := tp(); got != 0 {
			t.Errorf("%s = %v over an empty window, want 0", name, got)
		}
	}
	m.Stop(4) // end before start
	if m.Window() != 0 {
		t.Errorf("inverted window = %v, want 0", m.Window())
	}
	s := m.String()
	if strings.Contains(s, "Inf") || strings.Contains(s, "NaN") {
		t.Errorf("String leaked a non-finite rate: %q", s)
	}
}

func TestLossFractionZeroOffered(t *testing.T) {
	var m ThroughputMeter
	m.Lose() // loss recorded with no offered packets
	if got := m.LossFraction(); got != 0 {
		t.Errorf("LossFraction with zero offered = %v, want 0 (not NaN)", got)
	}
	if math.IsNaN(m.LossFraction()) || math.IsInf(m.LossFraction(), 0) {
		t.Error("LossFraction must stay finite")
	}
}

func TestFairnessMeterZeroFlows(t *testing.T) {
	f := NewFairnessMeter()
	if len(f.bytes) != 0 {
		t.Errorf("Flows = %d, want 0", len(f.bytes))
	}
	if got := f.JFI(); got != 0 {
		t.Errorf("JFI over zero flows = %v, want 0 (not NaN)", got)
	}
}

func TestFairnessMeterSingleFlow(t *testing.T) {
	f := NewFairnessMeter()
	ft := packet.FiveTuple{SrcPort: 1, DstPort: 2}
	f.Record(ft, 1000)
	f.Record(ft, 500)
	if len(f.bytes) != 1 {
		t.Errorf("Flows = %d, want 1", len(f.bytes))
	}
	// JFI is exactly 1 for a single flow: sum² / (1·sumSq) = 1.
	if got := f.JFI(); math.Abs(got-1) > 1e-15 {
		t.Errorf("JFI for a single flow = %v, want 1", got)
	}
}

func TestFairnessMeterZeroByteFlow(t *testing.T) {
	f := NewFairnessMeter()
	f.Record(packet.FiveTuple{SrcPort: 3}, 0)
	if got := f.JFI(); got != 0 {
		t.Errorf("JFI over an all-zero allocation = %v, want 0 (not NaN)", got)
	}
}

func TestJFIByteIdenticalAccumulation(t *testing.T) {
	// Float addition is not associative: a 2^53 allocation absorbs lone
	// +1 addends unless the small values accumulate first. JFI sorts the
	// allocations before summing, so the index must be bit-identical on
	// every call regardless of map iteration order. Without the sort,
	// repeated calls disagree with the sorted-order value almost surely.
	f := NewFairnessMeter()
	f.Record(packet.FiveTuple{SrcPort: 999, Proto: packet.ProtoUDP}, 1<<53)
	const small = 12
	for i := 0; i < small; i++ {
		f.Record(packet.FiveTuple{SrcPort: uint16(i), Proto: packet.ProtoUDP}, 1)
	}

	var sum, sumSq float64
	for i := 0; i < small; i++ { // ascending order: smallest addends first
		sum += 1
		sumSq += 1
	}
	sum += float64(uint64(1) << 53)
	sumSq += float64(uint64(1)<<53) * float64(uint64(1)<<53)
	want := sum * sum / (float64(small+1) * sumSq)

	for i := 0; i < 50; i++ {
		if got := f.JFI(); got != want {
			t.Fatalf("call %d: JFI = %v, want bit-identical %v", i, got, want)
		}
	}
}
