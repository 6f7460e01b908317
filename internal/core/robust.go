package core

import (
	"errors"
	"fmt"
	"sort"

	"fairbench/internal/metric"
	"fairbench/internal/stats"
)

// Statistically robust verdicts: a single Evaluate call turns one
// (perf, cost) point per system into a conclusion, but measured points
// carry run-to-run variance — §1 of the paper calls performance
// reproducibility "a challenge in itself". This file lifts the verdict
// machinery from points to distributions: given K replicate
// measurements per system, EvaluateReplicated bootstraps the
// comparison and reports how often resampled replicates agree with the
// nominal conclusion, which conclusions appear instead when they do
// not, and a confidence interval per axis. RelationConfidence does the
// same for the bare Pareto relation, so CompareUnderRegimes' degraded
// verdicts can carry confidence too.

// ErrNoReplicates is returned when a sample set has no trials or
// mismatched axis lengths.
var ErrNoReplicates = errors.New("core: replicated evaluation needs at least one paired (perf, cost) trial")

// PointSamples holds one system's replicate measurements: Perf[i] and
// Cost[i] come from the same trial, so resampling keeps the axes
// paired (a hot trial is hot on both axes).
type PointSamples struct {
	Perf []float64
	Cost []float64
}

// validate checks pairing and finiteness.
func (ps PointSamples) validate() error {
	if len(ps.Perf) == 0 || len(ps.Perf) != len(ps.Cost) {
		return fmt.Errorf("%w: %d perf vs %d cost samples", ErrNoReplicates, len(ps.Perf), len(ps.Cost))
	}
	if err := stats.CheckFinite(ps.Perf); err != nil {
		return fmt.Errorf("%w: perf samples: %v", ErrNonFinitePoint, err)
	}
	if err := stats.CheckFinite(ps.Cost); err != nil {
		return fmt.Errorf("%w: cost samples: %v", ErrNonFinitePoint, err)
	}
	return nil
}

// resample draws one paired bootstrap resample and returns the
// per-axis medians of the draw.
func (ps PointSamples) resample(rng *stats.RNG, idx []int, perf, cost []float64) (medPerf, medCost float64) {
	stats.ResampleIndices(rng, idx)
	for i, j := range idx {
		perf[i] = ps.Perf[j]
		cost[i] = ps.Cost[j]
	}
	return stats.Median(perf), stats.Median(cost)
}

// RobustOptions tunes the bootstrap.
type RobustOptions struct {
	// Level is the confidence level for per-axis intervals
	// (default 0.95).
	Level float64
	// Seed drives the resampling generator; the same seed yields a
	// byte-identical RobustVerdict (default 1).
	Seed uint64
}

func (o RobustOptions) withDefaults() RobustOptions {
	if o.Level == 0 {
		o.Level = 0.95
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// AxisSummary is the replicate statistics of one axis of one system.
type AxisSummary struct {
	// Median is the across-trial median — the nominal coordinate.
	Median float64
	// CI is the bootstrap confidence interval of the median.
	CI stats.Interval
	// CV is the coefficient of variation across trials.
	CV float64
	// Outliers counts MAD-flagged trials.
	Outliers int
}

// summarizeAxis computes an AxisSummary. Seed derivation uses MixSeed
// per axis so each axis gets an independent resampling stream.
func summarizeAxis(samples []float64, o RobustOptions, axisSeed uint64) (AxisSummary, error) {
	ci, err := stats.MedianCI(samples, stats.Resamples, o.Level, axisSeed)
	if err != nil {
		return AxisSummary{}, err
	}
	return AxisSummary{
		Median:   stats.Median(samples),
		CI:       ci,
		CV:       stats.CV(samples),
		Outliers: len(stats.Outliers(samples, stats.DefaultOutlierK)),
	}, nil
}

// RobustVerdict is an explained verdict with quantified uncertainty.
type RobustVerdict struct {
	// Verdict is the nominal evaluation at the across-trial median
	// points.
	Verdict
	// Confidence is the fraction of bootstrap resamples whose
	// conclusion agrees with the nominal one, in [0, 1]. Zero-variance
	// replicates give 1.0 by construction.
	Confidence float64
	// Distribution counts conclusions over the resamples.
	Distribution map[Conclusion]int
	// Flips lists the non-nominal conclusions observed, most frequent
	// first — the ways this comparison can go wrong.
	Flips []Conclusion
	// Resamples and Level echo the bootstrap configuration.
	Resamples int
	Level     float64
	// Trials is the replicate count per system (proposed, baseline).
	ProposedTrials, BaselineTrials int
	// Per-axis summaries (median, CI, CV, outlier count).
	ProposedPerf, ProposedCost AxisSummary
	BaselinePerf, BaselineCost AxisSummary
	// Sensitivity composes the §1 reproducibility grid with the
	// measured noise: a SensitivityAnalysis run with the relative error
	// set from the largest observed CV, so the grid perturbs by what
	// the replicates actually moved.
	Sensitivity SensitivityResult
}

// String renders e.g.
// "proposed-superior (confidence 98% over 200 resamples of 5+5 trials)".
func (r RobustVerdict) String() string {
	return fmt.Sprintf("%s (confidence %.0f%% over %d resamples of %d+%d trials)",
		r.Conclusion, r.Confidence*100, r.Resamples, r.ProposedTrials, r.BaselineTrials)
}

// pointAt rebuilds a system's point with new coordinate values, keeping
// the measured units.
func pointAt(base Point, perf, cost float64) Point {
	return Pt(metric.Q(perf, base.Perf.Unit), metric.Q(cost, base.Cost.Unit))
}

// EvaluateReplicated lifts Evaluate to replicated measurements. The
// Systems carry names, scalability facts and the measured units of
// their points; their coordinates are replaced by the across-trial
// medians for the nominal verdict, then bootstrap-resampled (paired
// per trial, independently per system) to estimate how stable that
// verdict is. Deterministic in opts.Seed.
func (e *Evaluator) EvaluateReplicated(proposed, baseline System, ps, bs PointSamples, opts RobustOptions) (RobustVerdict, error) {
	opts = opts.withDefaults()
	if err := stats.CheckLevel(opts.Level); err != nil {
		return RobustVerdict{}, err
	}
	if err := ps.validate(); err != nil {
		return RobustVerdict{}, fmt.Errorf("core: proposed %q: %w", proposed.Name, err)
	}
	if err := bs.validate(); err != nil {
		return RobustVerdict{}, fmt.Errorf("core: baseline %q: %w", baseline.Name, err)
	}

	out := RobustVerdict{
		Distribution:   make(map[Conclusion]int),
		Resamples:      stats.Resamples,
		Level:          opts.Level,
		ProposedTrials: len(ps.Perf),
		BaselineTrials: len(bs.Perf),
	}

	// Per-axis summaries on independent streams derived from the seed.
	var err error
	if out.ProposedPerf, err = summarizeAxis(ps.Perf, opts, stats.MixSeed(opts.Seed, 1)); err != nil {
		return RobustVerdict{}, err
	}
	if out.ProposedCost, err = summarizeAxis(ps.Cost, opts, stats.MixSeed(opts.Seed, 2)); err != nil {
		return RobustVerdict{}, err
	}
	if out.BaselinePerf, err = summarizeAxis(bs.Perf, opts, stats.MixSeed(opts.Seed, 3)); err != nil {
		return RobustVerdict{}, err
	}
	if out.BaselineCost, err = summarizeAxis(bs.Cost, opts, stats.MixSeed(opts.Seed, 4)); err != nil {
		return RobustVerdict{}, err
	}

	// Nominal verdict at the median points.
	proposed.Point = pointAt(proposed.Point, out.ProposedPerf.Median, out.ProposedCost.Median)
	baseline.Point = pointAt(baseline.Point, out.BaselinePerf.Median, out.BaselineCost.Median)
	out.Verdict, err = e.Evaluate(proposed, baseline)
	if err != nil {
		return RobustVerdict{}, err
	}

	// Bootstrap the conclusion: resample trials (paired axes) per
	// system, re-evaluate at the resampled medians.
	rng := stats.NewRNG(stats.MixSeed(opts.Seed, 0))
	pIdx := make([]int, len(ps.Perf))
	bIdx := make([]int, len(bs.Perf))
	pPerf, pCost := make([]float64, len(ps.Perf)), make([]float64, len(ps.Perf))
	bPerf, bCost := make([]float64, len(bs.Perf)), make([]float64, len(bs.Perf))
	agree := 0
	for r := 0; r < stats.Resamples; r++ {
		pp, pc := ps.resample(rng, pIdx, pPerf, pCost)
		bp, bc := bs.resample(rng, bIdx, bPerf, bCost)
		p, b := proposed, baseline
		p.Point = pointAt(proposed.Point, pp, pc)
		b.Point = pointAt(baseline.Point, bp, bc)
		v, err := e.Evaluate(p, b)
		if err != nil {
			return RobustVerdict{}, fmt.Errorf("core: resample %d: %w", r, err)
		}
		out.Distribution[v.Conclusion]++
		if v.Conclusion == out.Conclusion {
			agree++
		}
	}
	out.Confidence = float64(agree) / stats.Resamples
	out.Flips = flipsFromDistribution(out.Distribution, out.Conclusion)

	// Compose with the deterministic sensitivity grid, perturbing by
	// the measured relative noise (at least 1% so the grid is not
	// degenerate, at most 20% to keep it meaningful).
	relErr := maxFloat(out.ProposedPerf.CV, out.ProposedCost.CV, out.BaselinePerf.CV, out.BaselineCost.CV)
	relErr = clampFloat(relErr, 0.01, 0.2)
	out.Sensitivity, err = SensitivityAnalysis(e, proposed, baseline, SensitivityOptions{RelError: relErr})
	if err != nil {
		return RobustVerdict{}, err
	}
	return out, nil
}

// flipsFromDistribution orders the non-nominal conclusions by
// descending count (ties by conclusion value).
func flipsFromDistribution(dist map[Conclusion]int, nominal Conclusion) []Conclusion {
	type kv struct {
		c Conclusion
		n int
	}
	var list []kv
	for c, n := range dist {
		if c != nominal && n > 0 {
			list = append(list, kv{c, n})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].c < list[j].c
	})
	out := make([]Conclusion, len(list))
	for i, e := range list {
		out[i] = e.c
	}
	return out
}

func maxFloat(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RelationStats quantifies the stability of a bare Pareto relation
// under bootstrap resampling — the degraded-regime analogue of verdict
// confidence.
type RelationStats struct {
	// Nominal is the relation at the across-trial median points.
	Nominal Relation
	// Agreement is the fraction of resamples reproducing it, in [0, 1].
	Agreement float64
	// Distribution counts relations over the resamples.
	Distribution map[Relation]int
}

// String renders e.g. "≻ (agreement 97%)".
func (r RelationStats) String() string {
	return fmt.Sprintf("%s (agreement %.0f%%)", r.Nominal, r.Agreement*100)
}

// RelationConfidence bootstraps Compare over replicated measurements
// of two points whose sample values are in perfUnit and costUnit.
func RelationConfidence(p Plane, prop, base PointSamples, perfUnit, costUnit metric.Unit, tol float64, opts RobustOptions) (RelationStats, error) {
	opts = opts.withDefaults()
	if err := stats.CheckLevel(opts.Level); err != nil {
		return RelationStats{}, err
	}
	if err := prop.validate(); err != nil {
		return RelationStats{}, err
	}
	if err := base.validate(); err != nil {
		return RelationStats{}, err
	}
	mk := func(perf, cost float64) Point {
		return Pt(metric.Q(perf, perfUnit), metric.Q(cost, costUnit))
	}
	out := RelationStats{Distribution: make(map[Relation]int)}
	var err error
	out.Nominal, err = Compare(p,
		mk(stats.Median(prop.Perf), stats.Median(prop.Cost)),
		mk(stats.Median(base.Perf), stats.Median(base.Cost)), tol)
	if err != nil {
		return RelationStats{}, err
	}
	rng := stats.NewRNG(stats.MixSeed(opts.Seed, 0))
	pIdx, bIdx := make([]int, len(prop.Perf)), make([]int, len(base.Perf))
	pPerf, pCost := make([]float64, len(prop.Perf)), make([]float64, len(prop.Perf))
	bPerf, bCost := make([]float64, len(base.Perf)), make([]float64, len(base.Perf))
	agree := 0
	for r := 0; r < stats.Resamples; r++ {
		pp, pc := prop.resample(rng, pIdx, pPerf, pCost)
		bp, bc := base.resample(rng, bIdx, bPerf, bCost)
		rel, err := Compare(p, mk(pp, pc), mk(bp, bc), tol)
		if err != nil {
			return RelationStats{}, fmt.Errorf("core: resample %d: %w", r, err)
		}
		out.Distribution[rel]++
		if rel == out.Nominal {
			agree++
		}
	}
	out.Agreement = float64(agree) / stats.Resamples
	return out, nil
}

// ReplicatedRegimePoint is a RegimePoint plus the per-trial samples
// behind each system's nominal point.
type ReplicatedRegimePoint struct {
	RegimePoint
	ProposedSamples, BaselineSamples PointSamples
}

// RobustDegradedComparison is CompareUnderRegimes with per-regime
// relation confidence.
type RobustDegradedComparison struct {
	DegradedComparison
	// Confidence holds one RelationStats per regime, aligned with
	// Verdicts.
	Confidence []RelationStats
}

// Summary extends the stability conclusion with the weakest per-regime
// agreement.
func (d RobustDegradedComparison) Summary() string {
	s := d.DegradedComparison.Summary()
	if len(d.Confidence) == 0 {
		return s
	}
	min, minRegime := 2.0, ""
	for i, c := range d.Confidence {
		if c.Agreement < min {
			min, minRegime = c.Agreement, d.Verdicts[i].Regime
		}
	}
	return fmt.Sprintf("%s; weakest relation agreement %.0f%% in regime %q", s, min*100, minRegime)
}

// CompareUnderRegimesReplicated evaluates the pair in every regime at
// the across-trial median points and attaches bootstrap relation
// confidence per regime. Regime seeds are derived from opts.Seed via
// MixSeed so the per-regime resampling streams are independent but
// reproducible.
func CompareUnderRegimesReplicated(p Plane, pts []ReplicatedRegimePoint, tol float64, opts RobustOptions) (RobustDegradedComparison, error) {
	opts = opts.withDefaults()
	if err := stats.CheckLevel(opts.Level); err != nil {
		return RobustDegradedComparison{}, err
	}
	nominal := make([]RegimePoint, 0, len(pts))
	for _, rp := range pts {
		if err := rp.ProposedSamples.validate(); err != nil {
			return RobustDegradedComparison{}, fmt.Errorf("core: regime %q proposed: %w", rp.Regime, err)
		}
		if err := rp.BaselineSamples.validate(); err != nil {
			return RobustDegradedComparison{}, fmt.Errorf("core: regime %q baseline: %w", rp.Regime, err)
		}
		nominal = append(nominal, RegimePoint{
			Regime: rp.Regime,
			Proposed: Pt(
				metric.Q(stats.Median(rp.ProposedSamples.Perf), rp.Proposed.Perf.Unit),
				metric.Q(stats.Median(rp.ProposedSamples.Cost), rp.Proposed.Cost.Unit)),
			Baseline: Pt(
				metric.Q(stats.Median(rp.BaselineSamples.Perf), rp.Baseline.Perf.Unit),
				metric.Q(stats.Median(rp.BaselineSamples.Cost), rp.Baseline.Cost.Unit)),
		})
	}
	base, err := CompareUnderRegimes(p, nominal, tol)
	if err != nil {
		return RobustDegradedComparison{}, err
	}
	out := RobustDegradedComparison{DegradedComparison: base}
	for i, rp := range pts {
		ro := opts
		ro.Seed = stats.MixSeed(opts.Seed, uint64(i)+5)
		rs, err := RelationConfidence(p, rp.ProposedSamples, rp.BaselineSamples,
			rp.Proposed.Perf.Unit, rp.Proposed.Cost.Unit, tol, ro)
		if err != nil {
			return RobustDegradedComparison{}, fmt.Errorf("core: regime %q: %w", rp.Regime, err)
		}
		out.Confidence = append(out.Confidence, rs)
	}
	return out, nil
}
