package core

import (
	"fmt"
)

// System is a named system under evaluation: its measured point in the
// plane plus the scalability facts the principles need.
type System struct {
	// Name identifies the system in reports.
	Name string
	// Point is the measured (performance, cost) position.
	Point Point
	// Scalable reports whether the system can be horizontally scaled
	// in a way that improves the performance metric (§4.2).
	Scalable bool
	// UtilizedFraction is the fraction of the hardware included in the
	// system's cost that the system actually uses (1 if fully used).
	// Values below 1 trigger the §4.2.1 coverage pitfall warning when
	// the system is ideally scaled. Zero means unknown and is treated
	// as fully used.
	UtilizedFraction float64
}

func (s System) utilized() float64 {
	if s.UtilizedFraction == 0 {
		return 1
	}
	return s.UtilizedFraction
}

// Conclusion is the overall outcome of an evaluation.
type Conclusion int

const (
	// IncomparableSystems: no objective superiority claim is possible;
	// report both performance and cost and argue for the operating
	// regime (§4.3 "Baseline not in the comparison region").
	IncomparableSystems Conclusion = iota
	// ProposedSuperior: the proposed system is objectively better at
	// the compared regime.
	ProposedSuperior
	// BaselineSuperior: the baseline is objectively better.
	BaselineSuperior
	// Tie: the systems coincide within tolerance.
	Tie
)

// String names the conclusion.
func (c Conclusion) String() string {
	switch c {
	case ProposedSuperior:
		return "proposed-superior"
	case BaselineSuperior:
		return "baseline-superior"
	case Tie:
		return "tie"
	default:
		return "incomparable"
	}
}

// Verdict is a fully explained evaluation outcome: which principles
// were applied, what was concluded, and the claims the evaluation
// licenses — suitable for direct inclusion in a paper's text.
type Verdict struct {
	Plane    Plane
	Proposed System
	Baseline System
	// Regime is the §4.1 operating-regime relationship.
	Regime Regime
	// Direct is the Pareto relation of proposed to baseline without
	// any scaling.
	Direct Relation
	// Scaled holds the ideal-scaling construction when Principle 6 was
	// applied, else nil.
	Scaled *ScalingResult
	// Conclusion is the overall outcome.
	Conclusion Conclusion
	// Applied lists the principles used to reach the conclusion.
	Applied []PrincipleID
	// Claims are human-readable statements the evaluation justifies.
	Claims []string
	// Warnings flag methodological hazards (coverage pitfalls).
	Warnings []string
}

// Evaluator applies the paper's methodology. The zero value is not
// usable; construct with NewEvaluator.
type Evaluator struct {
	plane Plane
	tol   float64
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithTolerance sets the relative tolerance for regime equality.
func WithTolerance(tol float64) Option {
	return func(e *Evaluator) { e.tol = tol }
}

// NewEvaluator builds an evaluator over plane p. The plane's cost
// metric must meet Principles 1–3.
func NewEvaluator(p Plane, opts ...Option) (*Evaluator, error) {
	e := &Evaluator{plane: p, tol: DefaultTolerance}
	for _, o := range opts {
		o(e)
	}
	if e.tol < 0 {
		return nil, fmt.Errorf("core: negative tolerance %v", e.tol)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// Evaluate compares a proposed system against a baseline following the
// paper's decision procedure:
//
//  1. Establish the cost metric is sound (Principles 1–3, checked at
//     construction).
//  2. If the systems share a regime, make the unidimensional claim
//     (Principle 4).
//  3. Otherwise check Pareto dominance directly; inside the comparison
//     region an objective claim is possible (Figure 2; Principle 7 for
//     non-scalable baselines).
//  4. If incomparable and the baseline and metrics are scalable,
//     ideally scale the baseline to the proposed system's comparison
//     region and conclude there (Principles 5–6).
//  5. Otherwise the systems are fundamentally incomparable: report
//     both points (§4.3).
func (e *Evaluator) Evaluate(proposed, baseline System) (Verdict, error) {
	v := Verdict{Plane: e.plane, Proposed: proposed, Baseline: baseline}

	var err error
	v.Regime, err = ClassifyRegime(e.plane, proposed.Point, baseline.Point, e.tol)
	if err != nil {
		return Verdict{}, err
	}
	v.Direct, err = Compare(e.plane, proposed.Point, baseline.Point, e.tol)
	if err != nil {
		return Verdict{}, err
	}

	// Step 2: same regime → unidimensional analysis (Principle 4).
	if v.Regime.Unidimensional() {
		v.Applied = append(v.Applied, P4Unidimensional)
		claim, err := UnidimensionalClaim(e.plane, proposed.Point, baseline.Point, e.tol)
		if err != nil {
			return Verdict{}, err
		}
		v.Claims = append(v.Claims, claim)
		v.Conclusion = conclusionFromRelation(v.Direct)
		return v, nil
	}

	// Step 3: different regimes → Pareto dominance. If the baseline is
	// already inside the proposed system's comparison region, an
	// objective claim is possible with no scaling — this is also the
	// only comparable case for non-scalable baselines (Principle 7).
	if v.Direct != Incomparable {
		if !baseline.Scalable || !e.metricsScalable() {
			v.Applied = append(v.Applied, P7NonScalable)
		} else {
			// The baseline already sits in the proposed system's
			// comparison region — Principle 5's requirement holds with
			// no scaling needed.
			v.Applied = append(v.Applied, P5ScaleBaseline)
		}
		v.Conclusion = conclusionFromRelation(v.Direct)
		v.Claims = append(v.Claims, directClaim(e.plane, proposed, baseline, v.Direct))
		return v, nil
	}

	// Step 4: incomparable as measured. Scale the baseline if we may.
	if baseline.Scalable && e.metricsScalable() {
		v.Applied = append(v.Applied, P5ScaleBaseline, P6IdealScaling)
		if w := CoverageWarning(baseline.Name, baseline.utilized()); w != "" {
			v.Warnings = append(v.Warnings, w)
		}
		res, err := ScaleBaselineIntoRegion(e.plane, proposed.Point, baseline.Point, e.tol)
		if err != nil {
			return Verdict{}, err
		}
		v.Scaled = &res
		switch {
		case res.ProposedWins():
			v.Conclusion = ProposedSuperior
			v.Claims = append(v.Claims, fmt.Sprintf(
				"assuming ideal (linear) scalability, %s scaled %.2fx to match %s's performance reaches %s, which %s dominates; and scaled %.2fx to match cost reaches %s, which %s also dominates — %s is superior at its performance-cost target",
				baseline.Name, res.FactorAtPerf, proposed.Name, res.AtMatchedPerf, proposed.Name,
				res.FactorAtCost, res.AtMatchedCost, proposed.Name, proposed.Name))
		case res.BaselineWins():
			v.Conclusion = BaselineSuperior
			v.Claims = append(v.Claims, fmt.Sprintf(
				"even granting no scaling losses, %s ideally scaled (%s at matched performance, %s at matched cost) dominates %s — the proposed system is not a win",
				baseline.Name, res.AtMatchedPerf, res.AtMatchedCost, proposed.Name))
		default:
			// Within tolerance of the scaling line: treat as a tie.
			v.Conclusion = Tie
			v.Claims = append(v.Claims, fmt.Sprintf(
				"%s lies on %s's ideal-scaling line within tolerance; the comparison is a wash at this regime",
				proposed.Name, baseline.Name))
		}
		return v, nil
	}

	// Step 5: non-scalable and outside the region — fundamentally
	// incomparable (Principle 7, second scenario).
	v.Applied = append(v.Applied, P7NonScalable)
	v.Conclusion = IncomparableSystems
	v.Claims = append(v.Claims,
		fmt.Sprintf("%s %s and %s %s are fundamentally incomparable: neither dominates, and scaling is unavailable",
			proposed.Name, proposed.Point, baseline.Name, baseline.Point),
		fmt.Sprintf("report both performance and cost for %s so readers can decide whether its operating regime fits their requirements, and so it can serve as a baseline for future systems (§4.3)",
			proposed.Name))
	return v, nil
}

func (e *Evaluator) metricsScalable() bool {
	return e.plane.Perf.Metric.Scalable && e.plane.Cost.Metric.Scalable
}

func conclusionFromRelation(r Relation) Conclusion {
	switch r {
	case Dominates:
		return ProposedSuperior
	case DominatedBy:
		return BaselineSuperior
	case Equal:
		return Tie
	default:
		return IncomparableSystems
	}
}

func directClaim(p Plane, proposed, baseline System, r Relation) string {
	switch r {
	case Dominates:
		return fmt.Sprintf("%s %s Pareto-dominates %s %s: it improves both %s and %s",
			proposed.Name, proposed.Point, baseline.Name, baseline.Point,
			p.Perf.Metric.Name, p.Cost.Metric.Name)
	case DominatedBy:
		return fmt.Sprintf("%s %s is Pareto-dominated by %s %s",
			proposed.Name, proposed.Point, baseline.Name, baseline.Point)
	default:
		return fmt.Sprintf("%s and %s coincide within tolerance", proposed.Name, baseline.Name)
	}
}

// EvaluateAgainstAll compares the proposed system against each baseline
// in turn, returning one verdict per baseline. It generalises the
// two-system exposition of §4 ("the approach generalizes when comparing
// larger numbers of systems").
func (e *Evaluator) EvaluateAgainstAll(proposed System, baselines []System) ([]Verdict, error) {
	out := make([]Verdict, 0, len(baselines))
	for _, b := range baselines {
		v, err := e.Evaluate(proposed, b)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating against %q: %w", b.Name, err)
		}
		out = append(out, v)
	}
	return out, nil
}
