package fairbench

import (
	"errors"
	"fmt"
	"sort"

	"fairbench/internal/core"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/report"
	"fairbench/internal/rfc2544"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// This file contains the experiment runners that regenerate every
// table, figure and worked example in the paper (the per-experiment
// index lives in DESIGN.md). Each runner returns structured results;
// the fairfigs command and bench_test.go render and time them.

// ErrBadTrials is the typed error for a negative trial count.
var ErrBadTrials = errors.New("fairbench: Trials must be >= 0 (0 means the default of one trial)")

// ExpOptions tunes experiment fidelity. The defaults favour accuracy;
// Quick() is used by unit tests and iterative development.
type ExpOptions struct {
	// TrialSeconds is the simulated time per measurement trial.
	TrialSeconds float64
	// Seed drives all generators. Trial k of a replicated run uses a
	// seed derived from Seed via SplitMix mixing (see TrialSeed), so
	// trials never alias across base seeds the way additive seed+k
	// schemes do.
	Seed uint64
	// SearchResolution is the RFC 2544 bracket width.
	SearchResolution float64
	// Trials is the number of independently seeded replicate
	// measurements per system (0 or 1 = single trial, the historical
	// behaviour). With Trials >= 2 the experiment drivers return
	// replicated systems and verdicts carry bootstrap confidence.
	Trials int
}

// ciLevel is the confidence level of every bootstrap interval.
const ciLevel = 0.95

// DefaultExpOptions returns the standard fidelity (20 ms trials).
func DefaultExpOptions() ExpOptions {
	return ExpOptions{TrialSeconds: 0.02, Seed: 1, SearchResolution: 0.02, Trials: 1}
}

// Quick returns reduced-fidelity options for fast tests.
func Quick() ExpOptions {
	return ExpOptions{TrialSeconds: 0.008, Seed: 1, SearchResolution: 0.05, Trials: 1}
}

// Validate rejects structurally invalid options with typed errors
// before any simulation runs.
func (o ExpOptions) Validate() error {
	if o.Trials < 0 {
		return fmt.Errorf("%w: got %d", ErrBadTrials, o.Trials)
	}
	return nil
}

func (o ExpOptions) withDefaults() ExpOptions {
	d := DefaultExpOptions()
	if o.TrialSeconds == 0 {
		o.TrialSeconds = d.TrialSeconds
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.SearchResolution == 0 {
		o.SearchResolution = d.SearchResolution
	}
	if o.Trials == 0 {
		o.Trials = d.Trials
	}
	return o
}

// TrialSeed derives the workload seed for replicate trial k. Trial 0
// uses the base seed unchanged, preserving single-trial determinism
// with historical artifacts; later trials use SplitMix-style mixing so
// (seed, trial) pairs never alias the way additive seed+k derivation
// does (seed 1 trial 2 vs seed 2 trial 1).
func TrialSeed(base uint64, k int) uint64 {
	if k == 0 {
		return base
	}
	return stats.MixSeed(base, uint64(k))
}

// robustOptions maps experiment options onto the core bootstrap
// configuration.
func (o ExpOptions) robustOptions() core.RobustOptions {
	return core.RobustOptions{Level: ciLevel, Seed: o.Seed}
}

func (o ExpOptions) searchOpts(maxPps float64) rfc2544.Opts {
	return rfc2544.Opts{
		MinPps:             0.2e6,
		MaxPps:             maxPps,
		TrialSeconds:       o.TrialSeconds,
		ResolutionFraction: o.SearchResolution,
	}
}

// MeasuredSystem is one simulated deployment's measured operating point.
type MeasuredSystem struct {
	Name           string
	ThroughputGbps float64
	ThroughputPps  float64
	PowerWatts     float64
	LatencyP50Us   float64
	LatencyP99Us   float64
}

// ThroughputPowerSystem converts the measurement into an evaluator
// System in the throughput/power plane.
func (m MeasuredSystem) ThroughputPowerSystem(scalable bool) System {
	return SystemPoint{Name: m.Name, Gbps: m.ThroughputGbps, Watts: m.PowerWatts, Scalable: scalable}.throughputSystem()
}

// CheckFinite rejects measurements poisoned by an empty or fully
// dropped trial window (NaN/Inf aggregates) before they become points
// in a comparison plane; the error wraps measure.ErrNonFinite.
func (m MeasuredSystem) CheckFinite() error {
	for _, c := range []struct {
		what string
		v    float64
	}{
		{"throughput_gbps", m.ThroughputGbps},
		{"throughput_pps", m.ThroughputPps},
		{"power_watts", m.PowerWatts},
		{"latency_p50_us", m.LatencyP50Us},
		{"latency_p99_us", m.LatencyP99Us},
	} {
		if err := measure.CheckFinite(m.Name+" "+c.what, c.v); err != nil {
			return err
		}
	}
	return nil
}

// ReplicatedSystem is one system measured over K independently seeded
// trials. The embedded MeasuredSystem is the nominal measurement — the
// median-throughput trial — so single-valued consumers keep working;
// the per-trial samples feed the bootstrap verdict machinery.
type ReplicatedSystem struct {
	MeasuredSystem
	// Trials holds every replicate, in trial order.
	Trials []MeasuredSystem
	// Seeds holds the derived per-trial workload seeds.
	Seeds []uint64
}

// replicate runs trial once per replicate, o.Trials times (at least
// once), seeding trial k with TrialSeed(o.Seed, k). It returns the
// replicates and their seeds in trial order; a failing trial's error
// names its index and seed.
func replicate[T any](o ExpOptions, trial func(seed uint64) (T, error)) ([]T, []uint64, error) {
	k := max(o.Trials, 1)
	out, seeds := make([]T, k), make([]uint64, k)
	for t := range out {
		seeds[t] = TrialSeed(o.Seed, t)
		m, err := trial(seeds[t])
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d (seed %d): %w", t, seeds[t], err)
		}
		out[t] = m
	}
	return out, seeds, nil
}

// medianBy picks the median trial by key: the lower-middle element of a
// stable sort, so equal keys keep trial order.
func medianBy[T any](trials []T, key func(T) float64) T {
	idx := make([]int, len(trials))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(trials[idx[a]]) < key(trials[idx[b]]) })
	return trials[idx[(len(trials)-1)/2]]
}

// replicated wraps trials into a ReplicatedSystem, picking the
// median-throughput trial as nominal.
func replicated(trials []MeasuredSystem, seeds []uint64) ReplicatedSystem {
	nominal := medianBy(trials, func(m MeasuredSystem) float64 { return m.ThroughputGbps })
	return ReplicatedSystem{MeasuredSystem: nominal, Trials: trials, Seeds: seeds}
}

// ThroughputSamples returns the per-trial throughput values (Gb/s).
func (r ReplicatedSystem) ThroughputSamples() []float64 {
	out := make([]float64, len(r.Trials))
	for i, t := range r.Trials {
		out[i] = t.ThroughputGbps
	}
	return out
}

// PowerSamples returns the per-trial provisioned power values (W).
func (r ReplicatedSystem) PowerSamples() []float64 {
	out := make([]float64, len(r.Trials))
	for i, t := range r.Trials {
		out[i] = t.PowerWatts
	}
	return out
}

// ThroughputPowerSamples packages the trials for the throughput/power
// plane's replicated evaluation.
func (r ReplicatedSystem) ThroughputPowerSamples() core.PointSamples {
	return core.PointSamples{Perf: r.ThroughputSamples(), Cost: r.PowerSamples()}
}

// seededGen builds a workload generator from an explicit seed, letting
// replicated measurements derive one generator per trial.
type seededGen func(seed uint64) (*workload.Generator, error)

// measureOnce runs one RFC 2544 search against a deployment factory
// and packages the result.
func measureOnce(name string, dut rfc2544.DUTFactory, gen rfc2544.GenFactory, o ExpOptions, maxPps float64) (MeasuredSystem, error) {
	res, err := rfc2544.Throughput(dut, gen, o.searchOpts(maxPps))
	if err != nil {
		return MeasuredSystem{}, fmt.Errorf("measuring %s: %w", name, err)
	}
	if res.Pps == 0 {
		return MeasuredSystem{}, fmt.Errorf("measuring %s: no sustainable rate found", name)
	}
	m := MeasuredSystem{
		Name:           name,
		ThroughputGbps: res.Passing.Processed.GbPerSecond(),
		ThroughputPps:  res.Pps,
		PowerWatts:     res.Passing.ProvisionedPowerWatts,
		LatencyP50Us:   res.Passing.LatencyP50Us,
		LatencyP99Us:   res.Passing.LatencyP99Us,
	}
	if err := m.CheckFinite(); err != nil {
		return MeasuredSystem{}, fmt.Errorf("measuring %s: %w", name, err)
	}
	return m, nil
}

// measureThroughput measures a system over o.Trials independently
// seeded RFC 2544 searches and returns the replicated result. With a
// single trial this reduces exactly to the historical behaviour.
func measureThroughput(name string, dut rfc2544.DUTFactory, gen seededGen, o ExpOptions, maxPps float64) (ReplicatedSystem, error) {
	trials, seeds, err := replicate(o, func(seed uint64) (MeasuredSystem, error) {
		return measureOnce(name, dut, func() (*workload.Generator, error) { return gen(seed) }, o, maxPps)
	})
	if err != nil {
		return ReplicatedSystem{}, err
	}
	return replicated(trials, seeds), nil
}

// --- E1 / E10: Table 1 and the §3.4 scorecard -----------------------

// Table1Result carries the metric classification.
type Table1Result struct {
	Classification metric.Table1
	Scorecard      []metric.ScoreRow
}

// RunTable1 classifies the standard metric registry (experiments E1 and
// E10).
func RunTable1() Table1Result {
	r := metric.Standard()
	return Table1Result{
		Classification: metric.ClassifyTable1(r),
		Scorecard:      metric.Scorecard(r),
	}
}

// Table1Report renders the paper's Table 1.
func Table1Report(res Table1Result) *report.Table {
	t := report.NewTable("Table 1: context-dependent vs context-independent cost metrics",
		"Type", "Metric", "Unit")
	for _, d := range res.Classification.ContextDependent {
		t.AddRow("Context Dependent", d.DisplayName, d.Unit.Symbol)
	}
	for _, d := range res.Classification.ContextIndependent {
		t.AddRow("Context Independent", d.DisplayName, d.Unit.Symbol)
	}
	return t
}

// ScorecardReport renders the §3.4 practical-metric scorecard.
func ScorecardReport(res Table1Result) *report.Table {
	t := report.NewTable("§3.4 scorecard: cost metrics vs the three principles",
		"Metric", "Context-independent (P1)", "Quantifiable (P2)", "End-to-end (P3)", "Suitable", "Caveat")
	for _, row := range res.Scorecard {
		t.AddRow(row.Metric.DisplayName,
			report.Check(row.ContextIndependent),
			report.Check(row.Quantifiable),
			report.Check(row.EndToEnd),
			report.Check(row.Suitable),
			row.Caveat)
	}
	return t
}

// --- E2 / E3: Figure 1 — same-regime comparisons ---------------------

// Figure1Result holds the two same-regime demonstrations, built from
// measured runs of the two firewall matcher implementations (the
// DESIGN.md matcher ablation doubles as Figure 1's data).
type Figure1Result struct {
	// SameCost (Fig. 1a): one core, linear-matcher firewall ("old") vs
	// tuple-space firewall ("new") — equal cost, higher performance.
	OldSameCost, NewSameCost ReplicatedSystem
	VerdictSameCost          Verdict
	// SamePerf (Fig. 1b): the performance target and the two core
	// counts that reach it — equal performance, lower cost.
	TargetGbps               float64
	OldSamePerf, NewSamePerf ReplicatedSystem
	VerdictSamePerf          Verdict
}

// tupleSpaceFirewall builds the optimized firewall deployment: same
// host, same rules, tuple-space matcher. The §4.2.1-style port-range
// rule is expanded to exact ports for the tuple-space representation.
func tupleSpaceFirewall(cores int) (*testbed.Deployment, error) {
	m, err := nf.NewTupleSpaceMatcher(expandRanges(testbed.FirewallRules(testbed.DefaultFillerRules)))
	if err != nil {
		return nil, err
	}
	return testbed.New(testbed.Config{
		Name:         fmt.Sprintf("fw-tuplespace-%dcore", cores),
		Cores:        cores,
		CoreCfg:      testbed.ScenarioCore,
		ChassisWatts: testbed.ScenarioChassisWatts,
		NICWatts:     testbed.ScenarioNICWatts,
		NewNF: func(core int) (nf.Func, error) {
			return nf.NewFirewall(fmt.Sprintf("fw-ts-core%d", core), m), nil
		},
	})
}

// expandRanges rewrites port-range rules as exact-port rules so the
// tuple-space matcher accepts them.
func expandRanges(rules []nf.Rule) []nf.Rule {
	var out []nf.Rule
	id := 0
	for _, r := range rules {
		expand := func(pr nf.PortRange) []nf.PortRange {
			if pr.Any() || pr.Lo == pr.Hi {
				return []nf.PortRange{pr}
			}
			var prs []nf.PortRange
			for p := pr.Lo; p <= pr.Hi; p++ {
				prs = append(prs, nf.PortRange{Lo: p, Hi: p})
			}
			return prs
		}
		for _, sp := range expand(r.SrcPorts) {
			for _, dp := range expand(r.DstPorts) {
				nr := r
				nr.SrcPorts, nr.DstPorts = sp, dp
				nr.ID = id
				id++
				out = append(out, nr)
			}
		}
	}
	return out
}

// RunFigure1 produces both panels of Figure 1 from measured systems.
func RunFigure1(o ExpOptions) (Figure1Result, error) {
	var res Figure1Result
	if err := o.Validate(); err != nil {
		return res, err
	}
	o = o.withDefaults()
	gen := seededGen(testbed.E6Workload)
	var err error

	// Fig. 1a: same cost (one core each), different matcher.
	res.OldSameCost, err = measureThroughput("fw-linear-1core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }, gen, o, 16e6)
	if err != nil {
		return res, err
	}
	res.NewSameCost, err = measureThroughput("fw-tuplespace-1core",
		func() (*testbed.Deployment, error) { return tupleSpaceFirewall(1) }, gen, o, 16e6)
	if err != nil {
		return res, err
	}
	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	res.VerdictSameCost, err = e.Evaluate(
		res.NewSameCost.ThroughputPowerSystem(true),
		res.OldSameCost.ThroughputPowerSystem(true))
	if err != nil {
		return res, err
	}

	// Fig. 1b: same performance target (the 1-core tuple-space rate),
	// reached by the linear firewall only with more cores.
	res.TargetGbps = res.NewSameCost.ThroughputGbps
	res.NewSamePerf = res.NewSameCost
	for cores := 2; cores <= 8; cores++ {
		ms, err := measureThroughput(fmt.Sprintf("fw-linear-%dcore", cores),
			func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(cores) }, gen, o, 40e6)
		if err != nil {
			return res, err
		}
		if ms.ThroughputGbps >= res.TargetGbps*0.98 {
			res.OldSamePerf = ms
			break
		}
	}
	if res.OldSamePerf.Name == "" {
		return res, fmt.Errorf("figure 1b: linear firewall never reached %v Gb/s", res.TargetGbps)
	}
	// Evaluate at the shared performance target: both systems pinned to
	// the target rate, differing in cost.
	pinned := func(m ReplicatedSystem) System {
		return SystemPoint{Name: m.Name, Gbps: res.TargetGbps, Watts: m.PowerWatts, Scalable: true}.throughputSystem()
	}
	res.VerdictSamePerf, err = e.Evaluate(pinned(res.NewSamePerf), pinned(res.OldSamePerf))
	return res, err
}

// --- E4: Figure 2 — comparison region --------------------------------

// Figure2Result is the classification sweep around a measured reference.
type Figure2Result struct {
	Reference ReplicatedSystem
	// Grid holds candidate points and their region classes.
	Grid []Figure2Cell
}

// Figure2Cell is one classified candidate.
type Figure2Cell struct {
	Gbps, Watts float64
	Class       RegionClass
}

// RunFigure2 measures the SmartNIC firewall as the reference system A
// and classifies a grid of hypothetical baselines against its
// comparison region.
func RunFigure2(o ExpOptions) (Figure2Result, error) {
	if err := o.Validate(); err != nil {
		return Figure2Result{}, err
	}
	o = o.withDefaults()
	gen := seededGen(testbed.E6Workload)
	ref, err := measureThroughput("fw-smartnic",
		func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() }, gen, o, 24e6)
	if err != nil {
		return Figure2Result{}, err
	}
	region, err := core.NewRegion(core.DefaultPlane(),
		core.Pt(metric.Q(ref.ThroughputGbps, metric.GigabitPerSecond), metric.Q(ref.PowerWatts, metric.Watt)),
		core.DefaultTolerance)
	if err != nil {
		return Figure2Result{}, err
	}
	out := Figure2Result{Reference: ref}
	for _, gScale := range []float64{0.4, 0.7, 1.0, 1.3, 1.6} {
		for _, wScale := range []float64{0.4, 0.7, 1.0, 1.3, 1.6} {
			g := ref.ThroughputGbps * gScale
			w := ref.PowerWatts * wScale
			cls, err := region.Classify(core.Pt(metric.Q(g, metric.GigabitPerSecond), metric.Q(w, metric.Watt)))
			if err != nil {
				return out, err
			}
			out.Grid = append(out.Grid, Figure2Cell{Gbps: g, Watts: w, Class: cls})
		}
	}
	return out, nil
}

// --- E5 / E7: Figure 3 and the switch ideal-scaling example ----------

// SwitchScalingResult reproduces §4.2.1: the switch-accelerated
// firewall vs the host baseline, with the baseline ideally scaled into
// the proposed system's comparison region.
type SwitchScalingResult struct {
	Proposed ReplicatedSystem // switch + host
	Baseline ReplicatedSystem // host only
	Verdict  Verdict
	// Robust carries the bootstrap-confidence verdict when the run was
	// replicated (Trials >= 2), else nil.
	Robust *core.RobustVerdict
}

// RunSwitchScaling measures both systems and applies Principles 5-6.
func RunSwitchScaling(o ExpOptions) (SwitchScalingResult, error) {
	var res SwitchScalingResult
	if err := o.Validate(); err != nil {
		return res, err
	}
	o = o.withDefaults()
	gen := seededGen(testbed.E7Workload)
	var err error
	res.Proposed, err = measureThroughput("fw-switch",
		func() (*testbed.Deployment, error) { return testbed.SwitchFirewall(3) }, gen, o, 48e6)
	if err != nil {
		return res, err
	}
	res.Baseline, err = measureThroughput("fw-host-3core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(3) }, gen, o, 48e6)
	if err != nil {
		return res, err
	}
	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	res.Verdict, err = e.Evaluate(
		res.Proposed.ThroughputPowerSystem(true),
		res.Baseline.ThroughputPowerSystem(true))
	if err != nil {
		return res, err
	}
	if o.Trials >= 2 {
		rv, err := e.EvaluateReplicated(
			res.Proposed.ThroughputPowerSystem(true),
			res.Baseline.ThroughputPowerSystem(true),
			res.Proposed.ThroughputPowerSamples(),
			res.Baseline.ThroughputPowerSamples(),
			o.robustOptions())
		if err != nil {
			return res, err
		}
		res.Robust = &rv
	}
	return res, nil
}

// --- E6: the SmartNIC firewall example -------------------------------

// SmartNICResult reproduces §4.2: baseline on one core, the
// SmartNIC-accelerated system, and the baseline measured at two cores
// (the paper's "give the baseline more CPU cores" scaling).
type SmartNICResult struct {
	Baseline1 ReplicatedSystem
	Baseline2 ReplicatedSystem
	Proposed  ReplicatedSystem
	// VerdictVs1 evaluates proposed vs the 1-core baseline (different
	// regimes → ideal scaling applies).
	VerdictVs1 Verdict
	// VerdictVs2 evaluates proposed vs the measured 2-core baseline
	// (the paper's in-region comparison).
	VerdictVs2 Verdict
	// RobustVs2 is the bootstrap-confidence version of VerdictVs2,
	// populated when the run was replicated (Trials >= 2), else nil.
	RobustVs2 *core.RobustVerdict
}

// RunSmartNIC measures the three systems and applies the methodology.
func RunSmartNIC(o ExpOptions) (SmartNICResult, error) {
	var res SmartNICResult
	if err := o.Validate(); err != nil {
		return res, err
	}
	o = o.withDefaults()
	gen := seededGen(testbed.E6Workload)
	var err error
	res.Baseline1, err = measureThroughput("fw-host-1core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }, gen, o, 16e6)
	if err != nil {
		return res, err
	}
	res.Baseline2, err = measureThroughput("fw-host-2core",
		func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(2) }, gen, o, 24e6)
	if err != nil {
		return res, err
	}
	res.Proposed, err = measureThroughput("fw-smartnic",
		func() (*testbed.Deployment, error) { return testbed.SmartNICFirewall() }, gen, o, 24e6)
	if err != nil {
		return res, err
	}
	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	if res.VerdictVs1, err = e.Evaluate(
		res.Proposed.ThroughputPowerSystem(true),
		res.Baseline1.ThroughputPowerSystem(true)); err != nil {
		return res, err
	}
	res.VerdictVs2, err = e.Evaluate(
		res.Proposed.ThroughputPowerSystem(true),
		res.Baseline2.ThroughputPowerSystem(true))
	if err != nil {
		return res, err
	}
	if o.Trials >= 2 {
		rv, err := e.EvaluateReplicated(
			res.Proposed.ThroughputPowerSystem(true),
			res.Baseline2.ThroughputPowerSystem(true),
			res.Proposed.ThroughputPowerSamples(),
			res.Baseline2.ThroughputPowerSamples(),
			o.robustOptions())
		if err != nil {
			return res, err
		}
		res.RobustVs2 = &rv
	}
	return res, nil
}

// --- E8: non-scalable latency example --------------------------------

// LatencyResult reproduces §4.3: latency/power comparisons where
// scaling is unavailable. The comparable pair has one system dominate;
// the incomparable pair does not.
type LatencyResult struct {
	// FPGASystem is the low-latency accelerated deployment.
	FPGASystem ReplicatedSystem
	// BigHost is a many-core host at high load: worse latency, more
	// power — in the FPGA system's comparison region.
	BigHost ReplicatedSystem
	// SmallHost is a one-core host: worse latency but cheaper —
	// incomparable with the FPGA system.
	SmallHost ReplicatedSystem
	// VerdictComparable evaluates FPGA vs BigHost (expected: superior).
	VerdictComparable Verdict
	// VerdictIncomparable evaluates FPGA vs SmallHost (expected:
	// incomparable).
	VerdictIncomparable Verdict
}

// latencySystem converts a measured deployment into a latency-plane
// System (non-scalable by construction, per §4.3).
func latencySystem(m MeasuredSystem) System {
	return SystemPoint{Name: m.Name, LatencyUs: m.LatencyP99Us, Watts: m.PowerWatts}.latencySystem()
}

// RunLatency measures the three deployments at a fixed offered load and
// evaluates the two §4.3 scenarios.
func RunLatency(o ExpOptions) (LatencyResult, error) {
	var res LatencyResult
	if err := o.Validate(); err != nil {
		return res, err
	}
	o = o.withDefaults()

	measureOnceAt := func(name string, mk func() (*testbed.Deployment, error), pps float64, seed uint64) (MeasuredSystem, error) {
		d, err := mk()
		if err != nil {
			return MeasuredSystem{}, err
		}
		g, err := testbed.E6Workload(seed)
		if err != nil {
			return MeasuredSystem{}, err
		}
		r, err := d.Run(g, workload.Poisson{}, pps, o.TrialSeconds)
		if err != nil {
			return MeasuredSystem{}, err
		}
		return MeasuredSystem{
			Name:           name,
			ThroughputGbps: r.Processed.GbPerSecond(),
			ThroughputPps:  r.Processed.PacketsPerSecond(),
			PowerWatts:     r.ProvisionedPowerWatts,
			LatencyP50Us:   r.LatencyP50Us,
			LatencyP99Us:   r.LatencyP99Us,
		}, nil
	}
	measureAt := func(name string, mk func() (*testbed.Deployment, error), pps float64) (ReplicatedSystem, error) {
		trials, seeds, err := replicate(o, func(seed uint64) (MeasuredSystem, error) {
			return measureOnceAt(name, mk, pps, seed)
		})
		if err != nil {
			return ReplicatedSystem{}, err
		}
		return replicated(trials, seeds), nil
	}

	var err error
	res.FPGASystem, err = measureAt("fw-fpga", func() (*testbed.Deployment, error) {
		return testbed.FPGAFirewall(hw.FPGAConfig{CapacityPps: 20e6, PipelineLatencySeconds: 1e-6, ActiveWatts: 45, IdleWatts: 20})
	}, 2e6)
	if err != nil {
		return res, err
	}
	res.BigHost, err = measureAt("fw-host-8core", func() (*testbed.Deployment, error) {
		return testbed.BaselineFirewall(8)
	}, 2e6)
	if err != nil {
		return res, err
	}
	res.SmallHost, err = measureAt("fw-host-1core", func() (*testbed.Deployment, error) {
		return testbed.BaselineFirewall(1)
	}, 2e6)
	if err != nil {
		return res, err
	}

	e, err := core.NewEvaluator(core.LatencyPlane())
	if err != nil {
		return res, err
	}
	if res.VerdictComparable, err = e.Evaluate(latencySystem(res.FPGASystem.MeasuredSystem), latencySystem(res.BigHost.MeasuredSystem)); err != nil {
		return res, err
	}
	res.VerdictIncomparable, err = e.Evaluate(latencySystem(res.FPGASystem.MeasuredSystem), latencySystem(res.SmallHost.MeasuredSystem))
	return res, err
}

// --- E9: pitfall ablations -------------------------------------------

// PitfallResult demonstrates the three §4.2.1 pitfalls as enforced
// behaviours of the library.
type PitfallResult struct {
	// ScaleProposedErr is the refusal to ideally scale the proposed
	// system (pitfall 1).
	ScaleProposedErr error
	// CoverageWarnings are emitted when a half-utilized baseline is
	// ideally scaled with full-server cost (pitfall 2).
	CoverageWarnings []string
	// NonScalableErr is the refusal to linearly scale latency
	// (pitfall 3).
	NonScalableErr error
}

// RunPitfalls exercises all three guard rails.
func RunPitfalls() (PitfallResult, error) {
	var res PitfallResult
	res.ScaleProposedErr = core.ScaleProposedGuard()

	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, err
	}
	v, err := e.Evaluate(
		SystemPoint{Name: "accel", Gbps: 100, Watts: 200, Scalable: true}.throughputSystem(),
		System{
			Name:             "half-used-host",
			Point:            core.Pt(metric.Q(35, metric.GigabitPerSecond), metric.Q(100, metric.Watt)),
			Scalable:         true,
			UtilizedFraction: 0.5,
		})
	if err != nil {
		return res, err
	}
	res.CoverageWarnings = v.Warnings

	_, res.NonScalableErr = core.ScaleLinear(core.LatencyPlane(),
		core.Pt(metric.Q(8, metric.Microsecond), metric.Q(100, metric.Watt)), 2)
	return res, nil
}

// --- E11: RFC 2544 measurement suite ----------------------------------

// RFC2544Result is the measurement suite over the baseline firewall.
type RFC2544Result struct {
	Throughput rfc2544.ThroughputResult
	Latency    []rfc2544.LatencyPoint
	LossCurve  []rfc2544.LossPoint
	BackToBack int
}

// RunRFC2544 runs the full RFC 2544 suite against the 1-core baseline.
func RunRFC2544(o ExpOptions) (RFC2544Result, error) {
	o = o.withDefaults()
	dut := func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }
	gen := func() (*workload.Generator, error) { return testbed.E6Workload(o.Seed) }
	var res RFC2544Result
	var err error
	res.Throughput, err = rfc2544.Throughput(dut, gen, o.searchOpts(16e6))
	if err != nil {
		return res, err
	}
	res.Latency, err = rfc2544.LatencyAtLoads(dut, gen, res.Throughput.Pps,
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}, o.searchOpts(16e6))
	if err != nil {
		return res, err
	}
	loss := []float64{0.5e6, 1e6, 2e6, 4e6, 6e6, 8e6, 12e6}
	res.LossCurve, err = rfc2544.FrameLossCurve(dut, gen, loss, o.searchOpts(16e6))
	if err != nil {
		return res, err
	}
	res.BackToBack, err = rfc2544.BackToBack(dut, gen, 12e6, 4096, o.searchOpts(16e6))
	return res, err
}
