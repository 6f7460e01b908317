// Package perf provides performance-metric computation for systems
// evaluation: latency distributions with high-dynamic-range histograms,
// throughput summaries, and Jain's fairness index (JFI).
//
// The paper (§4.3) distinguishes scalable performance metrics
// (throughput) from non-scalable ones (latency, JFI); that distinction
// lives in the metric descriptors (internal/metric) and is consumed by
// the comparison engine (internal/core). This package computes the
// values themselves.
package perf

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed high-dynamic-range histogram of
// non-negative values (typically latencies in nanoseconds). It offers
// bounded relative error on quantiles while using constant memory,
// in the spirit of HdrHistogram.
//
// The zero value is not ready for use; call NewHistogram.
type Histogram struct {
	// growth is the bucket boundary growth factor, e.g. 1.02 for ~2%
	// relative quantile error.
	growth float64
	// logGrowth caches math.Log(growth).
	logGrowth float64
	// counts[0] counts values in [0, 1); counts[i] counts values in
	// [growth^(i-1), growth^i) for i >= 1.
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// bucketGrowth is every histogram's bucket growth factor; it bounds
// quantile error to about 1%.
const bucketGrowth = 1.02

// NewHistogram returns an empty histogram with bucket growth factor
// bucketGrowth.
func NewHistogram() *Histogram {
	return &Histogram{
		growth:    bucketGrowth,
		logGrowth: math.Log(bucketGrowth),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

// bucketIndex maps a value to its bucket.
func (h *Histogram) bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	return int(math.Log(v)/h.logGrowth) + 1
}

// bucketUpper returns the exclusive upper bound of bucket i, used as the
// reported quantile value (so quantiles never under-report).
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Pow(h.growth, float64(i))
}

// Record adds one observation. Negative, NaN and infinite values are
// rejected with an error rather than silently skewing the distribution.
func (h *Histogram) Record(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("perf: cannot record %v in histogram", v)
	}
	i := h.bucketIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	return nil
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) with
// relative error bounded by the growth factor. Quantile(0.5) is the
// median, Quantile(0.99) the 99th percentile. Returns 0 if the
// histogram is empty or q is out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 || q < 0 || q > 1 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := h.bucketUpper(i)
			// Never report beyond the observed max.
			if u > h.max {
				return h.max
			}
			return u
		}
	}
	return h.max
}

// Summary is a fixed set of distribution statistics, convenient for
// reporting latency in evaluation tables.
type Summary struct {
	Count               uint64
	Mean, Min, Max      float64
	P50, P90, P99, P999 float64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// ExactQuantile computes the q-quantile of a sample slice exactly (by
// sorting a copy). It is the reference implementation the histogram is
// property-tested against, and is also useful for small samples.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 || q < 0 || q > 1 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
