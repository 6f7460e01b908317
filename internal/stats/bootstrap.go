package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrLevel is returned for a confidence level outside (0, 1) or
// non-finite.
var ErrLevel = errors.New("stats: confidence level must be finite and in (0, 1)")

// Resamples is the bootstrap draw count of every interval and
// replicated verdict the experiments report.
const Resamples = 200

// CILevel is the confidence level of every bootstrap interval the
// experiments report.
const CILevel = 0.95

// CheckLevel validates a confidence level.
func CheckLevel(level float64) error {
	if math.IsNaN(level) || math.IsInf(level, 0) || level <= 0 || level >= 1 {
		return fmt.Errorf("%w: got %v", ErrLevel, level)
	}
	return nil
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// HalfWidth returns half the interval width — the ± figure reports
// quote next to a point estimate.
func (i Interval) HalfWidth() float64 {
	return (i.Hi - i.Lo) / 2
}

// String renders "[lo, hi]" with compact formatting.
func (i Interval) String() string {
	return fmt.Sprintf("[%.4g, %.4g]", i.Lo, i.Hi)
}

// ResampleIndices fills idx with n uniform draws from [0, n) where
// n = len(idx) — one bootstrap resample of an n-sample set. Exposed so
// callers resampling paired axes can reuse one index set across axes.
func ResampleIndices(r *RNG, idx []int) {
	n := len(idx)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
}

// Bootstrap draws Resamples bootstrap resamples of samples, applies
// stat to each, and returns the resulting statistic distribution in
// draw order. The same (samples, seed, stat) triple yields a
// byte-identical result on every run and platform.
func Bootstrap(samples []float64, seed uint64, stat func([]float64) float64) ([]float64, error) {
	if err := CheckFinite(samples); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	idx := make([]int, len(samples))
	draw := make([]float64, len(samples))
	out := make([]float64, Resamples)
	for r := range out {
		ResampleIndices(rng, idx)
		for i, j := range idx {
			draw[i] = samples[j]
		}
		out[r] = stat(draw)
	}
	return out, nil
}

// PercentileInterval returns the two-sided percentile interval of the
// given distribution at the given confidence level (e.g. 0.95 keeps
// the central 95%).
func PercentileInterval(dist []float64, level float64) (Interval, error) {
	if err := CheckLevel(level); err != nil {
		return Interval{}, err
	}
	if len(dist) == 0 {
		return Interval{}, ErrNoSamples
	}
	alpha := (1 - level) / 2
	return Interval{
		Lo: Percentile(dist, alpha),
		Hi: Percentile(dist, 1-alpha),
	}, nil
}

// MedianCI bootstraps the median and returns its percentile confidence
// interval — the robustness layer's standard per-axis interval.
// Deterministic in the seed.
func MedianCI(samples []float64, level float64, seed uint64) (Interval, error) {
	dist, err := Bootstrap(samples, seed, Median)
	if err != nil {
		return Interval{}, err
	}
	return PercentileInterval(dist, level)
}
