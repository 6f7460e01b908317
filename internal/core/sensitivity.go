package core

import (
	"fmt"
)

// Sensitivity analysis: measured (performance, cost) points carry
// uncertainty — run-to-run variance, power-meter accuracy, calibration
// error. A verdict that flips when inputs move by a few percent is not
// a result a paper should lean on. SensitivityAnalysis perturbs both
// systems' points over a grid of relative errors and reports how stable
// the conclusion is, operationalising the reproducibility concern the
// paper raises in §1 ("performance reproducibility is a challenge in
// itself").

// SensitivityOptions configures the perturbation grid.
type SensitivityOptions struct {
	// RelError is the maximum relative perturbation applied to each
	// coordinate (default 0.05 = ±5%).
	RelError float64
}

// sensitivitySteps is the number of grid points per axis per direction:
// {-e, -e/2, 0, +e/2, +e} per coordinate.
const sensitivitySteps = 2

func (o SensitivityOptions) withDefaults() SensitivityOptions {
	if o.RelError == 0 {
		o.RelError = 0.05
	}
	return o
}

// SensitivityResult summarises conclusion stability.
type SensitivityResult struct {
	// Nominal is the conclusion at the unperturbed inputs.
	Nominal Conclusion
	// Stability is the fraction of perturbed evaluations agreeing with
	// the nominal conclusion, in [0, 1].
	Stability float64
	// Distribution counts conclusions over the grid.
	Distribution map[Conclusion]int
	// Evaluations is the grid size.
	Evaluations int
	// RelError echoes the perturbation magnitude the grid used.
	RelError float64
}

// String renders e.g. "proposed-superior (stability 94% over 625 evals)".
func (r SensitivityResult) String() string {
	return fmt.Sprintf("%s (stability %.0f%% over %d evaluations)",
		r.Nominal, r.Stability*100, r.Evaluations)
}

// SensitivityAnalysis evaluates proposed vs baseline across a grid of
// relative perturbations of both systems' performance and cost values.
// The grid has (2·sensitivitySteps+1)⁴ = 625 points.
func SensitivityAnalysis(e *Evaluator, proposed, baseline System, opts SensitivityOptions) (SensitivityResult, error) {
	opts = opts.withDefaults()
	if opts.RelError < 0 || opts.RelError >= 1 {
		return SensitivityResult{}, fmt.Errorf("core: relative error %v outside [0, 1)", opts.RelError)
	}

	nominal, err := e.Evaluate(proposed, baseline)
	if err != nil {
		return SensitivityResult{}, err
	}
	res := SensitivityResult{
		Nominal:      nominal.Conclusion,
		Distribution: make(map[Conclusion]int),
		RelError:     opts.RelError,
	}

	// Perturbation factors per coordinate.
	var factors []float64
	for i := -sensitivitySteps; i <= sensitivitySteps; i++ {
		factors = append(factors, 1+opts.RelError*float64(i)/sensitivitySteps)
	}

	perturb := func(s System, pf, cf float64) System {
		s.Point.Perf = s.Point.Perf.Scale(pf)
		s.Point.Cost = s.Point.Cost.Scale(cf)
		return s
	}

	agree := 0
	for _, ppf := range factors {
		for _, pcf := range factors {
			for _, bpf := range factors {
				for _, bcf := range factors {
					v, err := e.Evaluate(perturb(proposed, ppf, pcf), perturb(baseline, bpf, bcf))
					if err != nil {
						return SensitivityResult{}, err
					}
					res.Distribution[v.Conclusion]++
					res.Evaluations++
					if v.Conclusion == res.Nominal {
						agree++
					}
				}
			}
		}
	}
	res.Stability = float64(agree) / float64(res.Evaluations)
	return res, nil
}
