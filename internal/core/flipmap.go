package core

import (
	"fmt"
	"strconv"
)

// Verdict-flip maps. CompareUnderRegimes asks whether a verdict
// survives qualitative regime changes (faults, attacks); this file
// asks the quantitative version: as one provisioning parameter sweeps —
// a flow-table size, a queue depth, a core count — where does the
// Pareto relation between the same two systems change? The answer is a
// map from parameter value to relation, with the flip points called
// out, so a comparison can state the parameter range its claim holds
// in (Principle 2 applied to a knob instead of a fault).

// ParamPoint is one pair of measured points at one value of the swept
// parameter. The first entry of a sweep is the reference
// (conventionally the amply-provisioned end).
type ParamPoint struct {
	// Param is the swept value; Label names it in reports ("65536").
	Param float64
	Label string
	// Proposed and Baseline are the measured points at this value.
	Proposed, Baseline Point
}

// FlipMapEntry is the per-value verdict.
type FlipMapEntry struct {
	Param    float64
	Label    string
	Relation Relation
	Class    RegionClass
	// Flipped reports whether this value's relation differs from the
	// reference's.
	Flipped bool
}

// flipParam names the swept parameter in reports.
const flipParam = "offload-table entries"

// FlipMap is the swept comparison.
type FlipMap struct {
	Plane Plane
	// Reference is the first entry's relation; flips are judged
	// against it.
	Reference Relation
	Entries   []FlipMapEntry
	// FlipParams lists the parameter values whose relation differs
	// from the reference, in sweep order.
	FlipParams []float64
}

// FlipMapOverParam evaluates the proposed/baseline pair at every swept
// value at DefaultTolerance. The first entry is the reference. Points
// must be finite and unit-compatible with the plane.
func FlipMapOverParam(p Plane, pts []ParamPoint) (FlipMap, error) {
	if len(pts) == 0 {
		return FlipMap{}, fmt.Errorf("core: no parameter points to compare")
	}
	out := FlipMap{Plane: p}
	for i, pp := range pts {
		label := pp.Label
		if label == "" {
			label = strconv.FormatFloat(pp.Param, 'g', -1, 64)
		}
		rel, err := Compare(p, pp.Proposed, pp.Baseline, DefaultTolerance)
		if err != nil {
			return FlipMap{}, fmt.Errorf("core: %s=%s: %w", flipParam, label, err)
		}
		region, err := NewRegion(p, pp.Baseline)
		if err != nil {
			return FlipMap{}, fmt.Errorf("core: %s=%s: %w", flipParam, label, err)
		}
		class, err := region.Classify(pp.Proposed)
		if err != nil {
			return FlipMap{}, fmt.Errorf("core: %s=%s: %w", flipParam, label, err)
		}
		e := FlipMapEntry{Param: pp.Param, Label: label, Relation: rel, Class: class}
		if i == 0 {
			out.Reference = rel
		} else if rel != out.Reference {
			e.Flipped = true
			out.FlipParams = append(out.FlipParams, pp.Param)
		}
		out.Entries = append(out.Entries, e)
	}
	return out, nil
}

// Stable reports whether the relation held across the whole sweep.
func (f FlipMap) Stable() bool { return len(f.FlipParams) == 0 }

// Summary renders the sweep conclusion.
func (f FlipMap) Summary() string {
	if len(f.Entries) == 0 {
		return "no parameter points compared"
	}
	ref := f.Entries[0]
	if f.Stable() {
		return fmt.Sprintf("verdict stable over %s sweep (%d points): proposed %s baseline from %s down",
			flipParam, len(f.Entries), ref.Relation, ref.Label)
	}
	return fmt.Sprintf("verdict flips along the %s sweep: proposed %s baseline at %s, but the relation changes at %v — the claim must state its provisioning regime",
		flipParam, ref.Relation, ref.Label, f.FlipParams)
}
