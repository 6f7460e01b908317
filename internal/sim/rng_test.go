package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds nearly identical: %d collisions", same)
	}
}

func TestDeriveStableAndIndependent(t *testing.T) {
	root := NewRNG(99)
	a1 := root.Derive("nic").Uint64()
	a2 := NewRNG(99).Derive("nic").Uint64()
	if a1 != a2 {
		t.Error("Derive must be stable for the same name")
	}
	if NewRNG(99).Derive("nic").Uint64() == NewRNG(99).Derive("cpu").Uint64() {
		t.Error("different names should give different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d, want ≈10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	const rate = 4.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp draw negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Draw()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf draw out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 must be the most popular, and heavily so.
	if counts[0] < counts[1] {
		t.Errorf("rank 0 (%d) should beat rank 1 (%d)", counts[0], counts[1])
	}
	if counts[0] < n/10 {
		t.Errorf("rank 0 frequency %d too low for s=1.2", counts[0])
	}
	// Tail ranks must still occur (it is a distribution over all ranks).
	tail := 0
	for _, c := range counts[50:] {
		tail += c
	}
	if tail == 0 {
		t.Error("Zipf tail never drawn")
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) should panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

// searchAll is Zipf's inverse transform without the guide table: a
// binary search over every rank for the first cumulative weight >= u.
func searchAll(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesFullSearch pins the guide table to the plain
// search it replaced: seeded draws, and the slice and weight
// boundaries where rounding can push u out of its guide bracket, must
// return the identical rank.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1024, 5000} {
		for _, s := range []float64{0.5, 1.1, 2} {
			z := NewZipf(NewRNG(uint64(n)), n, s)
			ref := NewRNG(uint64(n))
			for i := 0; i < 100_000; i++ {
				want := searchAll(z.cum, ref.Float64())
				if got := z.Draw(); got != want {
					t.Fatalf("n=%d s=%v draw %d: rank %d, full search %d", n, s, i, got, want)
				}
			}
			var edges []float64
			for j := 0; j < n; j++ {
				edges = append(edges, float64(j)/float64(n))
			}
			edges = append(edges, z.cum...)
			for _, e := range edges {
				for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.rank(u), searchAll(z.cum, u); got != want {
						t.Fatalf("n=%d s=%v u=%v: rank %d, full search %d", n, s, u, got, want)
					}
				}
			}
		}
	}

	// u just below 0.9 rounds up to slice 9 (u·10 == 9), whose guide
	// bracket starts past the rank that holds u: only the full-range
	// fallback finds rank 8.
	cum := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, math.Nextafter(0.9, 0), 1}
	z := &Zipf{cum: cum, guide: newGuide(cum)}
	if got := z.rank(cum[8]); got != 8 {
		t.Errorf("rank(%v) = %d, want 8", cum[8], got)
	}
}
