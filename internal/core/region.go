package core

import (
	"fmt"
)

// RegionClass places a candidate point relative to a reference system's
// comparison region (paper Figure 2). The comparison region of a design
// comprises all designs that Pareto-dominate it or are dominated by it;
// only inside the region can an objective superiority claim be made.
type RegionClass int

const (
	// OutsideCheaperWorse: the candidate has better cost but worse
	// performance — outside the region (lower-left "?" of Figure 2).
	OutsideCheaperWorse RegionClass = iota
	// OutsideFasterCostlier: better performance but worse cost —
	// outside the region (upper-right "?" of Figure 2).
	OutsideFasterCostlier
	// InRegionDominates: the candidate Pareto-dominates the reference
	// (B ≻ A in Figure 2).
	InRegionDominates
	// InRegionDominated: the candidate is dominated by the reference
	// (A ≻ B in Figure 2).
	InRegionDominated
	// InRegionEqual: coincides with the reference within tolerance.
	InRegionEqual
)

// String names the class.
func (c RegionClass) String() string {
	switch c {
	case InRegionDominates:
		return "in-region:dominates"
	case InRegionDominated:
		return "in-region:dominated"
	case InRegionEqual:
		return "in-region:equal"
	case OutsideCheaperWorse:
		return "outside:cheaper-but-worse"
	case OutsideFasterCostlier:
		return "outside:faster-but-costlier"
	default:
		return fmt.Sprintf("RegionClass(%d)", int(c))
	}
}

// Region is the comparison region of a reference point (the proposed
// system A in Figure 2).
type Region struct {
	Plane     Plane
	Reference Point
}

// NewRegion builds the comparison region of reference in plane p.
func NewRegion(p Plane, reference Point) (Region, error) {
	if err := reference.Validate(p); err != nil {
		return Region{}, err
	}
	return Region{Plane: p, Reference: reference}, nil
}

// Classify places candidate relative to the region, with axis equality
// at DefaultTolerance.
func (r Region) Classify(candidate Point) (RegionClass, error) {
	rel, err := Compare(r.Plane, candidate, r.Reference, DefaultTolerance)
	if err != nil {
		return OutsideCheaperWorse, err
	}
	switch rel {
	case Dominates:
		return InRegionDominates, nil
	case DominatedBy:
		return InRegionDominated, nil
	case Equal:
		return InRegionEqual, nil
	}
	// Incomparable: decide which "?" quadrant.
	if r.Plane.Perf.Better(candidate.Perf.Canonical(), r.Reference.Perf.Canonical()) {
		return OutsideFasterCostlier, nil
	}
	return OutsideCheaperWorse, nil
}

// NamedPoint pairs a system name with a plane point, for frontier
// reports.
type NamedPoint struct {
	Name  string
	Point Point
}

// NamedFrontier computes the Pareto frontier over named systems,
// returning frontier members and dominated systems separately, each
// preserving input order. Axis equality is at DefaultTolerance.
func NamedFrontier(p Plane, systems []NamedPoint) (frontier, dominated []NamedPoint, err error) {
	for _, s := range systems {
		if verr := s.Point.Validate(p); verr != nil {
			return nil, nil, fmt.Errorf("core: frontier system %q: %w", s.Name, verr)
		}
	}
	for i, a := range systems {
		isDominated := false
		for j, b := range systems {
			if i == j {
				continue
			}
			rel, cerr := Compare(p, a.Point, b.Point, DefaultTolerance)
			if cerr != nil {
				return nil, nil, cerr
			}
			if rel == DominatedBy {
				isDominated = true
				break
			}
		}
		if isDominated {
			dominated = append(dominated, a)
		} else {
			frontier = append(frontier, a)
		}
	}
	return frontier, dominated, nil
}
