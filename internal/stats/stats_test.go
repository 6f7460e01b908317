package stats

import (
	"errors"
	"math"
	"testing"
)

func TestMeanMedianPercentile(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if m := Mean(s); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
	if m := Median(s); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := Median([]float64{5, 1, 9}); m != 5 {
		t.Errorf("odd median = %v, want 5", m)
	}
	if p := Percentile(s, 0); p != 1 {
		t.Errorf("p0 = %v, want 1", p)
	}
	if p := Percentile(s, 1); p != 4 {
		t.Errorf("p100 = %v, want 4", p)
	}
	if p := Percentile([]float64{0, 10}, 0.25); p != 2.5 {
		t.Errorf("p25 = %v, want 2.5 (linear interpolation)", p)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) || !math.IsNaN(Mean(nil)) {
		t.Error("empty-set estimators should return NaN")
	}
	// Percentile must not reorder the caller's slice.
	if s[0] != 4 || s[3] != 2 {
		t.Errorf("input mutated: %v", s)
	}
}

func TestStdDevAndCV(t *testing.T) {
	if sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(sd-2.138) > 0.001 {
		t.Errorf("stddev = %v, want ~2.138", sd)
	}
	if sd := StdDev([]float64{7}); sd != 0 {
		t.Errorf("single-sample stddev = %v, want 0", sd)
	}
	if cv := CV([]float64{10, 10, 10}); cv != 0 {
		t.Errorf("zero-variance CV = %v, want 0", cv)
	}
	if cv := CV([]float64{0, 0}); cv != 0 {
		t.Errorf("zero-mean CV = %v, want 0", cv)
	}
	if cv := CV([]float64{90, 110}); math.Abs(cv-0.1414) > 0.001 {
		t.Errorf("CV = %v, want ~0.1414", cv)
	}
}

func TestMADOutliers(t *testing.T) {
	s := []float64{10, 10.1, 9.9, 10.05, 50}
	out := Outliers(s)
	if len(out) != 1 || out[0] != 4 {
		t.Errorf("outliers = %v, want [4]", out)
	}
	// Zero spread: any deviation is an outlier.
	out = Outliers([]float64{5, 5, 5, 6})
	if len(out) != 1 || out[0] != 3 {
		t.Errorf("zero-spread outliers = %v, want [3]", out)
	}
	if out := Outliers([]float64{1, 2}); out != nil {
		t.Errorf("tiny sets should not flag outliers, got %v", out)
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite([]float64{1, 2}); err != nil {
		t.Errorf("finite samples rejected: %v", err)
	}
	if err := CheckFinite(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty set error = %v, want ErrNoSamples", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckFinite([]float64{1, bad}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFinite(%v) = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestRNGDeterminismAndUniformity(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverge at step %d", i)
		}
	}
	// Different seeds diverge immediately.
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds produced the same first value")
	}
	// Intn stays in range and hits every bucket over enough draws.
	r := NewRNG(7)
	seen := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v, n := range seen {
		if n == 0 {
			t.Errorf("Intn never produced %d", v)
		}
	}
}

func TestMixSeedNoAdditiveAliasing(t *testing.T) {
	// The naive base+k scheme aliases (1, 2) with (2, 1); MixSeed must
	// not.
	if MixSeed(1, 2) == MixSeed(2, 1) {
		t.Error("MixSeed aliases across (base, k) pairs")
	}
	if MixSeed(0, 0) == MixSeed(1, 0) {
		t.Error("MixSeed ignores the base seed")
	}
	if MixSeed(5, 0) == MixSeed(5, 1) {
		t.Error("MixSeed ignores the stream index")
	}
	// Deterministic.
	if MixSeed(9, 3) != MixSeed(9, 3) {
		t.Error("MixSeed is not a pure function")
	}
}
