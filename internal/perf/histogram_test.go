package perf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		if err := h.Record(v); err != nil {
			t.Fatalf("Record(%v): %v", v, err)
		}
	}
	if h.Count() != 10 {
		t.Errorf("Count = %d, want 10", h.Count())
	}
	if got := h.Mean(); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("Mean = %v, want 5.5", got)
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Errorf("Min/Max = %v/%v, want 1/10", h.Min(), h.Max())
	}
}

func TestHistogramRejectsBadValues(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := h.Record(v); err == nil {
			t.Errorf("Record(%v) should fail", v)
		}
	}
	if h.Count() != 0 {
		t.Errorf("rejected values must not be counted; Count = %d", h.Count())
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram statistics should be 0")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Property: for any sample set, Quantile(q) is within growth-factor
	// relative error above the exact quantile, and never exceeds max.
	f := func(raw []uint32, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r%1_000_000) + 0.5
			if err := h.Record(samples[i]); err != nil {
				return false
			}
		}
		q := float64(qRaw%101) / 100
		approx := h.Quantile(q)
		exact := ExactQuantile(samples, q)
		if approx > h.Max()+1e-9 {
			return false
		}
		// Upper-bound property with bounded relative error: the bucket
		// upper bound is at most growth× the exact value (+1 absolute
		// slack for the [0,1) bucket).
		return approx+1e-9 >= exact && approx <= exact*1.02+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		_ = h.Record(r.ExpFloat64() * 1000)
	}
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: Q(%v)=%v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		_ = h.Record(float64(i))
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.P50 < 480 || s.P50 > 520 {
		t.Errorf("P50 = %v, want ≈500", s.P50)
	}
	if s.P99 < 975 || s.P99 > 1000 {
		t.Errorf("P99 = %v, want ≈990", s.P99)
	}
	if s.P999 < s.P99 || s.Max < s.P999 {
		t.Errorf("percentile ordering violated: p99=%v p999=%v max=%v", s.P99, s.P999, s.Max)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := ExactQuantile(s, c.q); got != c.want {
			t.Errorf("ExactQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Error("empty sample quantile should be 0")
	}
}

func TestHistogramSubNanosecondBucket(t *testing.T) {
	h := NewHistogram()
	_ = h.Record(0)
	_ = h.Record(0.25)
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(1); q > 1 {
		t.Errorf("all values < 1 but Quantile(1) = %v", q)
	}
}
