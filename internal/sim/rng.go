package sim

import "math"

// RNG is a small, fast, deterministic random stream (SplitMix64 core
// with xorshift-style finalisation). Each simulation entity takes its
// own stream derived from the simulation seed so that adding an entity
// never perturbs the draws other entities see — the property that keeps
// A/B experiment pairs variance-reduced.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Derive returns an independent stream for a named sub-entity. The name
// is folded with FNV-1a so the mapping is stable across runs.
func (r *RNG) Derive(name string) *RNG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return NewRNG(r.state ^ h ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential draw with the given rate (mean 1/rate),
// used for Poisson arrival processes. It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Zipf draws from a Zipf distribution over {0, ..., n-1} with exponent
// s > 0 by inverse-transform over precomputed cumulative weights. A
// guide table narrows each draw's binary search to the ranks whose
// cumulative weight can bracket it. Use NewZipf to amortise the tables
// across draws.
type Zipf struct {
	cum []float64
	// guide[j] is the first rank with cum >= j/n (n-1 if none), so a
	// draw u in [j/n, (j+1)/n) lands in [guide[j], guide[j+1]].
	guide []int32
	rng   *RNG
}

// NewZipf builds a Zipf sampler over n elements with exponent s.
// It panics if n <= 0 or s <= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("sim: Zipf requires n > 0 and s > 0")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, guide: newGuide(cum), rng: rng}
}

// newGuide builds the guide table over a non-decreasing cum in one pass.
func newGuide(cum []float64) []int32 {
	n := len(cum)
	step := 1 / float64(n)
	guide := make([]int32, n+1)
	i := 0
	for j := range guide {
		for i < n-1 && cum[i] < float64(j)*step {
			i++
		}
		guide[j] = int32(i)
	}
	return guide
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Draw() int { return z.rank(z.rng.Float64()) }

// rank returns the first rank whose cumulative weight is >= u, for u in
// [0, 1).
func (z *Zipf) rank(u float64) int {
	// u < 1, so u·n rounds to at most n-1 and guide[j+1] exists.
	j := int(u * float64(len(z.cum)))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	// Rounding in u·n or j/n can move u out of its slice. When the
	// bracket cum[lo-1] < u <= cum[hi] fails, search every rank, so each
	// draw returns exactly the first rank with cum >= u.
	if (lo > 0 && z.cum[lo-1] >= u) || z.cum[hi] < u {
		lo, hi = 0, len(z.cum)-1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
