package core

import (
	"fmt"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
)

// Evaluation checklist. The paper's §5 hopes "authors adhere to these
// principles when evaluating their systems, and reviewers consider
// these principles when reviewing papers". Checklist audits a described
// evaluation design against all seven principles and produces findings
// a reviewer (or an author, pre-submission) can act on.

// Severity grades a finding.
type Severity int

const (
	// Pass: the design satisfies the principle.
	Pass Severity = iota
	// Warning: acceptable with qualifications that must be reported.
	Warning
	// Violation: the design breaks the principle.
	Violation
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Pass:
		return "pass"
	case Warning:
		return "warning"
	default:
		return "violation"
	}
}

// Finding is one checklist result.
type Finding struct {
	Principle PrincipleID
	Severity  Severity
	Detail    string
}

// EvaluationDesign describes an evaluation for auditing.
type EvaluationDesign struct {
	// CostMetrics are the cost metrics the evaluation reports.
	CostMetrics []metric.Descriptor
	// PerfMetrics are the performance metrics reported.
	PerfMetrics []metric.Descriptor
	// Systems are the compared systems' cost components (one entry per
	// system), used for end-to-end coverage checking.
	Systems []DesignSystem
	// ClaimsAcrossRegimes is set when the evaluation makes
	// unidimensional claims ("2x faster") between systems that do not
	// share an operating regime.
	ClaimsAcrossRegimes bool
	// IdealScaling describes any ideal-scaling argument used.
	IdealScaling *IdealScalingUse
}

// DesignSystem is one system's cost reporting in a design.
type DesignSystem struct {
	Name       string
	Components []cost.Component
	// Scalable marks systems the evaluation treats as horizontally
	// scalable.
	Scalable bool
	// UtilizedFraction is the fraction of costed hardware in use.
	UtilizedFraction float64
}

// IdealScalingUse describes how ideal scaling was applied.
type IdealScalingUse struct {
	// ScaledSystem names the system that was ideally scaled.
	ScaledSystem string
	// ProposedSystem names the evaluation's proposed system.
	ProposedSystem string
	// MetricScalable reports whether the scaled performance metric
	// scales under horizontal scaling.
	MetricScalable bool
}

// Audit checks the design against the seven principles and returns the
// findings, most severe first within principle order.
func Audit(d EvaluationDesign) []Finding {
	var out []Finding
	add := func(p PrincipleID, s Severity, format string, args ...any) {
		out = append(out, Finding{Principle: p, Severity: s, Detail: fmt.Sprintf(format, args...)})
	}

	if len(d.CostMetrics) == 0 {
		add(P1ContextIndependent, Violation,
			"no cost metric is reported; heterogeneous-hardware comparisons require cost alongside performance (§2)")
	}
	for _, m := range d.CostMetrics {
		// P1: context independence.
		switch {
		case m.Props.ContextIndependent && m.Props.Qualification == "":
			add(P1ContextIndependent, Pass, "%s is context-independent", m.Name)
		case m.Props.Qualification != "":
			add(P1ContextIndependent, Warning, "%s needs qualification: %s", m.Name, m.Props.Qualification)
		default:
			add(P1ContextIndependent, Violation,
				"%s is context-dependent; values will not be comparable across papers or organisations (§3.1) — consider releasing a pricing model instead", m.Name)
		}
		// P2: quantifiability.
		if m.Props.Quantifiable {
			add(P2Quantifiable, Pass, "%s is quantifiable", m.Name)
		} else {
			add(P2Quantifiable, Violation,
				"%s has no agreed measurement methodology; discuss qualitatively alongside a quantifiable metric (§3.2)", m.Name)
		}
		// P3: end-to-end coverage over every system.
		for _, sys := range d.Systems {
			cov := cost.Coverage([]string{m.Name}, sys.Components)
			if !cov[m.Name] {
				add(P3EndToEnd, Violation,
					"metric %s does not cover all components of system %s end-to-end (§3.3)", m.Name, sys.Name)
			}
		}
	}

	// P4: unidimensional claims only within a shared regime.
	if d.ClaimsAcrossRegimes {
		add(P4Unidimensional, Violation,
			"the evaluation makes single-dimension claims between systems in different operating regimes; report and compare both performance and cost (§4.1)")
	} else {
		add(P4Unidimensional, Pass, "no cross-regime unidimensional claims")
	}

	// P5-P7: scaling discipline.
	if d.IdealScaling != nil {
		u := d.IdealScaling
		if u.ScaledSystem == u.ProposedSystem {
			add(P6IdealScaling, Violation,
				"ideal scalability is assumed for the proposed system %q; only the baseline may be ideally scaled (§4.2.1 pitfall 1)", u.ScaledSystem)
		} else {
			add(P5ScaleBaseline, Pass, "baseline %q is brought to the proposed system's comparison region", u.ScaledSystem)
		}
		if !u.MetricScalable {
			add(P7NonScalable, Violation,
				"the scaled performance metric does not scale with horizontal scaling (§4.3); the systems are only comparable if the baseline is already in the comparison region")
		}
		for _, sys := range d.Systems {
			if sys.Name == u.ScaledSystem {
				if !sys.Scalable {
					add(P7NonScalable, Violation,
						"system %q is not scalable but is ideally scaled (§4.3)", sys.Name)
				}
				if w := CoverageWarning(sys.Name, utilOrFull(sys.UtilizedFraction)); w != "" {
					add(P6IdealScaling, Warning, "%s", w)
				}
			}
		}
	}
	return out
}

func utilOrFull(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}
