// Package stats provides the deterministic statistics the robustness
// layer is built on: a seedable SplitMix64 generator, summary
// statistics (median, percentiles, coefficient of variation, MAD
// outlier flagging) and seeded bootstrap resampling with percentile
// confidence intervals. Everything is stdlib-only and free of global
// state: the same seed produces byte-identical resamples on every
// platform, which is what lets a RobustVerdict reproduce exactly.
package stats

import "math"

// RNG is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; use NewRNG to seed explicitly. SplitMix64 passes
// BigCrush, needs only a uint64 of state, and — unlike math/rand — has
// a stable, documented output sequence we control, so resamples are
// reproducible across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value of the SplitMix64 sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Rejection sampling removes the modulo bias, keeping resample index
// distributions exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	bound := uint64(n)
	// Largest multiple of bound that fits in a uint64.
	limit := math.MaxUint64 - math.MaxUint64%bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// MixSeed derives an independent stream seed from a base seed and a
// stream index using the SplitMix64 finalizer. Unlike additive schemes
// (base+k), mixed seeds do not alias across (base, k) pairs — seed 1
// trial 2 and seed 2 trial 1 get unrelated streams — which is what the
// multi-trial replication layer needs when deriving per-trial seeds.
func MixSeed(base, k uint64) uint64 {
	z := base + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TrialSeed derives the workload seed for replicate trial k. Trial 0
// uses the base seed unchanged, preserving single-trial determinism
// with historical artifacts; later trials use MixSeed so (seed, trial)
// pairs never alias the way additive seed+k derivation does (seed 1
// trial 2 vs seed 2 trial 1).
func TrialSeed(base uint64, k int) uint64 {
	if k == 0 {
		return base
	}
	return MixSeed(base, uint64(k))
}
