package core

import "fmt"

// Degraded-regime comparison: the paper's Principle 2 demands that
// systems be compared within the same operating regime, and a real
// heterogeneous deployment's regimes include degraded ones — a SmartNIC
// outage, a browned-out host, a lossy link. This file extends the
// two-point machinery to a family of regimes: the same pair of systems
// measured under the healthy regime and under each fault regime, with a
// Pareto/comparison-region verdict per regime and a stability summary
// saying whether the healthy-regime verdict survives failure.

// RegimePoint is one pair of measured points — proposed and baseline —
// under a named operating regime ("healthy", "smartnic-outage", ...).
type RegimePoint struct {
	Regime             string
	Proposed, Baseline Point
}

// RegimeVerdict is the per-regime comparison outcome.
type RegimeVerdict struct {
	Regime string
	// Relation is the Pareto relation of proposed to baseline in this
	// regime.
	Relation Relation
	// Class places the proposed point relative to the baseline's
	// comparison region in this regime.
	Class RegionClass
	// Claim is the human-readable one-liner.
	Claim string
}

// DegradedComparison is the cross-regime result.
type DegradedComparison struct {
	Plane    Plane
	Verdicts []RegimeVerdict
	// Stable reports whether every regime yields the same Pareto
	// relation as the reference (first) regime — a verdict that only
	// holds while nothing fails is a much weaker claim.
	Stable bool
	// Flips names the regimes whose relation differs from the
	// reference regime's.
	Flips []string
}

// CompareUnderRegimes evaluates the proposed/baseline pair in every
// regime at DefaultTolerance. The first entry is the reference regime
// (conventionally the healthy one); stability is judged against it.
// Points must be finite and unit-compatible with the plane — a
// fully-dropped window that produced a NaN measurement is rejected
// here rather than silently classified.
func CompareUnderRegimes(p Plane, pts []RegimePoint) (DegradedComparison, error) {
	if len(pts) == 0 {
		return DegradedComparison{}, fmt.Errorf("core: no regimes to compare")
	}
	out := DegradedComparison{Plane: p, Stable: true}
	var reference Relation
	for i, rp := range pts {
		rel, err := Compare(p, rp.Proposed, rp.Baseline, DefaultTolerance)
		if err != nil {
			return DegradedComparison{}, fmt.Errorf("core: regime %q: %w", rp.Regime, err)
		}
		region, err := NewRegion(p, rp.Baseline)
		if err != nil {
			return DegradedComparison{}, fmt.Errorf("core: regime %q: %w", rp.Regime, err)
		}
		class, err := region.Classify(rp.Proposed)
		if err != nil {
			return DegradedComparison{}, fmt.Errorf("core: regime %q: %w", rp.Regime, err)
		}
		v := RegimeVerdict{
			Regime:   rp.Regime,
			Relation: rel,
			Class:    class,
			Claim: fmt.Sprintf("%s: proposed %s %s baseline %s (%s)",
				rp.Regime, rp.Proposed, rel, rp.Baseline, class),
		}
		out.Verdicts = append(out.Verdicts, v)
		if i == 0 {
			reference = rel
			continue
		}
		if rel != reference {
			out.Stable = false
			out.Flips = append(out.Flips, rp.Regime)
		}
	}
	return out, nil
}

// Summary renders the stability conclusion.
func (d DegradedComparison) Summary() string {
	if len(d.Verdicts) == 0 {
		return "no regimes compared"
	}
	ref := d.Verdicts[0]
	if d.Stable {
		return fmt.Sprintf("verdict stable across %d regimes: proposed %s baseline in %q and every fault regime",
			len(d.Verdicts), ref.Relation, ref.Regime)
	}
	return fmt.Sprintf("verdict NOT stable: proposed %s baseline in %q, but the relation changes under %v — a fair claim must name its regime",
		ref.Relation, ref.Regime, d.Flips)
}
