package perf

import (
	"fmt"
	"time"
)

// Jain computes Jain's fairness index over per-entity allocations
// (Jain, Chiu, Hawe 1984 — the paper's reference [13] for a
// non-scalable metric):
//
//	JFI = (Σx)² / (n · Σx²)
//
// The result lies in [1/n, 1]; 1 means perfectly fair. An empty or
// all-zero allocation returns 0 (undefined fairness) rather than NaN.
func Jain(alloc []float64) float64 {
	if len(alloc) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range alloc {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(alloc)) * sumSq)
}

// Throughput summarises data transferred over an interval as both a bit
// rate and a packet rate. It is the unit-bearing result of a measurement
// window (see internal/measure for live meters).
type Throughput struct {
	Bits    uint64
	Packets uint64
	Elapsed time.Duration
}

// BitsPerSecond returns the measured bit rate, or 0 for an empty window.
func (t Throughput) BitsPerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Bits) / t.Elapsed.Seconds()
}

// PacketsPerSecond returns the measured packet rate, or 0 for an empty
// window.
func (t Throughput) PacketsPerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Packets) / t.Elapsed.Seconds()
}

// GbPerSecond returns the bit rate in Gb/s.
func (t Throughput) GbPerSecond() float64 { return t.BitsPerSecond() / 1e9 }

// String renders e.g. "9.87 Gb/s (1.2 Mpps)".
func (t Throughput) String() string {
	return fmt.Sprintf("%.3f Gb/s (%.3f Mpps)", t.GbPerSecond(), t.PacketsPerSecond()/1e6)
}
