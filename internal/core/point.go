// Package core implements the paper's primary contribution: a
// methodology for fairly comparing systems that run on heterogeneous
// hardware by considering both performance and cost (Sadok, Panda,
// Sherry, HotNets '23).
//
// The central objects are points in the performance–cost plane
// (Figures 1–3 of the paper), the Pareto-dominance relation between
// them, the comparison region of a proposed system (Figure 2), ideal
// linear scaling of baselines into that region (Figure 3, Principles
// 5–6), and an Evaluator that applies the paper's seven principles to
// produce an explained verdict.
package core

import (
	"errors"
	"fmt"
	"math"

	"fairbench/internal/metric"
)

// Axis describes one dimension of the comparison plane: which metric it
// measures, in which unit, which way it improves, and whether it scales
// under horizontal scaling. It is a thin wrapper over a metric
// descriptor so that planes carry all the information Principles 4–7
// need.
type Axis struct {
	Metric metric.Descriptor
}

// AxisFor builds an Axis from a descriptor.
func AxisFor(d metric.Descriptor) Axis { return Axis{Metric: d} }

// Better reports whether value a improves on b along this axis.
func (a Axis) Better(x, y float64) bool { return a.Metric.Direction.Better(x, y) }

// Plane is a two-axis comparison space: one performance axis and one
// cost axis. The paper's prescription (§2) is that evaluations report
// and compare both.
type Plane struct {
	Perf Axis
	Cost Axis
}

// Validate checks that the axes have the expected kinds and that the
// cost metric satisfies the paper's three principles (§3); a plane with
// an unsuitable cost metric yields misleading comparisons, so it is
// rejected with an explanatory error. Use ValidateRelaxed to override.
func (p Plane) Validate() error {
	if err := p.ValidateRelaxed(); err != nil {
		return err
	}
	if !p.Cost.Metric.Props.Good() {
		return fmt.Errorf("core: cost metric %q does not meet the paper's three principles (context-independent/quantifiable/end-to-end): %s",
			p.Cost.Metric.Name, p.Cost.Metric.String())
	}
	return nil
}

// ValidateRelaxed checks structural validity only (kinds and units),
// allowing cost metrics that fail the §3 principles. This is useful for
// demonstrating *why* such metrics mislead.
func (p Plane) ValidateRelaxed() error {
	if p.Perf.Metric.Kind != metric.Performance {
		return fmt.Errorf("core: perf axis uses %q which is a %s metric", p.Perf.Metric.Name, p.Perf.Metric.Kind)
	}
	if p.Cost.Metric.Kind != metric.Cost {
		return fmt.Errorf("core: cost axis uses %q which is a %s metric", p.Cost.Metric.Name, p.Cost.Metric.Kind)
	}
	if err := p.Perf.Metric.Validate(); err != nil {
		return err
	}
	return p.Cost.Metric.Validate()
}

// DefaultPlane returns the plane used throughout the paper's examples:
// throughput (Gb/s, higher better) versus power draw (W, lower better).
func DefaultPlane() Plane {
	r := metric.Standard()
	return Plane{
		Perf: AxisFor(r.MustLookup(metric.MetricThroughputBps)),
		Cost: AxisFor(r.MustLookup(metric.MetricPower)),
	}
}

// LatencyPlane returns the plane of the §4.3 examples: latency (µs,
// lower better, non-scalable) versus power draw (W, lower better).
func LatencyPlane() Plane {
	r := metric.Standard()
	return Plane{
		Perf: AxisFor(r.MustLookup(metric.MetricLatency)),
		Cost: AxisFor(r.MustLookup(metric.MetricPower)),
	}
}

// Point is a system's measured position in a plane: one performance
// quantity and one cost quantity.
type Point struct {
	Perf metric.Quantity
	Cost metric.Quantity
}

// Pt constructs a Point.
func Pt(perf, cost metric.Quantity) Point { return Point{Perf: perf, Cost: cost} }

// ErrNonFinitePoint is the typed error Validate wraps when a point
// carries a NaN or infinite coordinate — the residue of a zero-length
// or fully-dropped measurement window, which must never silently enter
// a Pareto comparison.
var ErrNonFinitePoint = errors.New("core: non-finite point")

// Validate checks the point's units against the plane's axes and that
// both coordinates are finite.
func (pt Point) Validate(p Plane) error {
	if !pt.Perf.Unit.Compatible(p.Perf.Metric.Unit) {
		return fmt.Errorf("core: perf %s incompatible with axis %q (%s)", pt.Perf, p.Perf.Metric.Name, p.Perf.Metric.Unit.Symbol)
	}
	if !pt.Cost.Unit.Compatible(p.Cost.Metric.Unit) {
		return fmt.Errorf("core: cost %s incompatible with axis %q (%s)", pt.Cost, p.Cost.Metric.Name, p.Cost.Metric.Unit.Symbol)
	}
	if v := pt.Perf.Value; math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: perf %q = %v", ErrNonFinitePoint, p.Perf.Metric.Name, v)
	}
	if v := pt.Cost.Value; math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: cost %q = %v", ErrNonFinitePoint, p.Cost.Metric.Name, v)
	}
	return nil
}

// String renders e.g. "(20 Gb/s, 70 W)".
func (pt Point) String() string {
	return fmt.Sprintf("(%s, %s)", pt.Perf, pt.Cost)
}

// Relation is the outcome of comparing two points under Pareto
// dominance (§4.2): a design dominates another if it improves
// performance without sacrificing cost, or improves cost without
// sacrificing performance.
type Relation int

const (
	// Incomparable: neither point dominates — one is better on
	// performance, the other on cost. Outside each other's comparison
	// regions (Figure 2's "?" zones).
	Incomparable Relation = iota
	// Dominates: the first point Pareto-dominates the second.
	Dominates
	// DominatedBy: the first point is Pareto-dominated by the second.
	DominatedBy
	// Equal: the points coincide within tolerance on both axes.
	Equal
)

// String returns a symbol-style rendering: "≻", "≺", "=", or "?".
func (r Relation) String() string {
	switch r {
	case Dominates:
		return "≻"
	case DominatedBy:
		return "≺"
	case Equal:
		return "="
	default:
		return "?"
	}
}

// DefaultTolerance is the relative tolerance within which two values on
// an axis are considered "the same regime" (paper §4.1). Measured
// systems never land on exactly equal numbers; 2% reflects typical
// run-to-run variance in network benchmarks.
const DefaultTolerance = 0.02

// Compare determines the Pareto relation of a to b in plane p, using
// relative tolerance tol (use DefaultTolerance) for axis equality.
// It returns an error if either point's units do not match the plane.
func Compare(p Plane, a, b Point, tol float64) (Relation, error) {
	if err := a.Validate(p); err != nil {
		return Incomparable, fmt.Errorf("core: first point: %w", err)
	}
	if err := b.Validate(p); err != nil {
		return Incomparable, fmt.Errorf("core: second point: %w", err)
	}
	perfEq := a.Perf.ApproxEqual(b.Perf, tol)
	costEq := a.Cost.ApproxEqual(b.Cost, tol)
	perfBetter := !perfEq && p.Perf.Better(a.Perf.Canonical(), b.Perf.Canonical())
	costBetter := !costEq && p.Cost.Better(a.Cost.Canonical(), b.Cost.Canonical())
	perfWorse := !perfEq && !perfBetter
	costWorse := !costEq && !costBetter

	switch {
	case perfEq && costEq:
		return Equal, nil
	case !perfWorse && !costWorse:
		return Dominates, nil
	case !perfBetter && !costBetter:
		return DominatedBy, nil
	default:
		return Incomparable, nil
	}
}
