package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by estimators given an empty sample set.
var ErrNoSamples = errors.New("stats: no samples")

// ErrNonFinite is returned when a sample set contains NaN or ±Inf.
var ErrNonFinite = errors.New("stats: non-finite sample")

// CheckFinite rejects sample sets poisoned by NaN or ±Inf values.
func CheckFinite(samples []float64) error {
	if len(samples) == 0 {
		return ErrNoSamples
	}
	for i, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: sample %d is %v", ErrNonFinite, i, v)
		}
	}
	return nil
}

// Mean returns the arithmetic mean. Mean of an empty set is NaN.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Median returns the 50th percentile (see Percentile).
func Median(samples []float64) float64 {
	return Percentile(samples, 0.5)
}

// Percentile returns the p-quantile (p in [0, 1]) using linear
// interpolation between order statistics (the common "type 7"
// definition). It copies its input; the caller's slice is untouched.
// Percentile of an empty set is NaN.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// StdDev returns the sample standard deviation (n-1 denominator).
// It is 0 for fewer than two samples.
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	ss := 0.0
	for _, v := range samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// CV returns the coefficient of variation (stddev / |mean|), the
// scale-free run-to-run noise figure the replication layer reports.
// It is 0 when the mean is 0 (all-zero samples) and for n < 2.
func CV(samples []float64) float64 {
	m := Mean(samples)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return StdDev(samples) / math.Abs(m)
}

// MAD returns the median absolute deviation from the median — a robust
// spread estimate a single wild trial cannot inflate.
func MAD(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	med := Median(samples)
	devs := make([]float64, len(samples))
	for i, v := range samples {
		devs[i] = math.Abs(v - med)
	}
	return Median(devs)
}

// outlierK is the conventional MAD-based outlier cut: a sample further
// than outlierK scaled MADs from the median is flagged. 1.4826 scales
// MAD to the standard deviation of a normal distribution, so 3.5
// approximates a 3.5-sigma rule.
const outlierK = 3.5

// madToSigma rescales MAD to a normal-consistent sigma estimate.
const madToSigma = 1.4826

// Outliers returns the indices of samples further than outlierK scaled
// MADs from the median, in ascending order. With zero spread (MAD == 0)
// any sample differing from the median is flagged.
func Outliers(samples []float64) []int {
	if len(samples) < 3 {
		return nil
	}
	med := Median(samples)
	mad := MAD(samples)
	var out []int
	for i, v := range samples {
		dev := math.Abs(v - med)
		if mad == 0 {
			if dev > 0 {
				out = append(out, i)
			}
			continue
		}
		if dev/(mad*madToSigma) > outlierK {
			out = append(out, i)
		}
	}
	return out
}
