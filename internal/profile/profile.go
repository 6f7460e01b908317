// Package profile is the saturation-delta profiler: it explains *why* a
// system saturates where it does, not just *that* it does.
//
// The methodology combines two ideas from the related literature. From
// operator-cost profiling ("Profiling Multi-Level Operator Costs for
// Bottleneck Diagnosis in High-Speed Data Planes"): the cost of one
// operator is the change in saturation throughput when that operator is
// removed, measured by re-running the RFC 2544 zero-loss binary search
// with the operator ablated. From component-effect inference
// (BenchCouncil): attribute a performance difference to the component
// whose removal moves the measured figure. Both reduce to the same
// primitive here — a seeded, reproducible saturation search per
// pipeline variant, with bootstrap confidence intervals over paired
// per-trial deltas.
//
// Sign convention: DeltaPps = saturation(ablated) − saturation(full).
// A positive delta means the operator costs capacity (removing it makes
// the system faster); a negative delta means the operator *contributes*
// capacity (removing it pushes work onto a slower path — e.g. ablating
// a SmartNIC fast path forces every packet through host cores).
//
// Ablation validity caveat (see DESIGN.md §7): an ablated pipeline does
// not deliver the same service — the delta prices the *mechanism*
// under the unchanged workload and seeds, it does not compare two
// equally-correct systems. Ablated devices stay in the bill of
// materials, so the cost axis is held constant while the performance
// axis moves.
package profile

import (
	"errors"
	"fmt"
	"strings"

	"fairbench/internal/obs"
	"fairbench/internal/rfc2544"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// ErrNoSaturation is returned when a target cannot sustain even the
// minimum searched rate, leaving no saturation point to profile.
var ErrNoSaturation = errors.New("profile: no sustainable rate")

// Options parameterises a profiling run. The zero value is usable:
// every field has a default.
type Options struct {
	// TrialSeconds is the simulated duration of each search trial and
	// each bottleneck observation run (default 0.02).
	TrialSeconds float64
	// Seed is the base seed; trial k derives its workload seed from
	// (Seed, k), with trial 0 using Seed itself.
	Seed uint64
	// Trials is the number of replicated saturation searches per
	// pipeline variant (default 1; CIs degenerate to a point).
	Trials int
	// ResolutionFraction is the binary-search stopping width
	// (default 0.02).
	ResolutionFraction float64
	// Level is the confidence level of the bootstrap CIs (default
	// 0.95).
	Level float64
}

// The fixed conditions of every profile: the two observed load regimes
// relative to the measured saturation rate (comfortably below the knee,
// and past it), and the sampler ticks the bottleneck observation run
// spreads over TrialSeconds.
const (
	preKneeFraction  = 0.6
	postKneeFraction = 1.1
	observeSamples   = 50
)

func (o Options) withDefaults() Options {
	if o.TrialSeconds == 0 {
		o.TrialSeconds = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	if o.ResolutionFraction == 0 {
		o.ResolutionFraction = 0.02
	}
	if o.Level == 0 {
		o.Level = stats.CILevel
	}
	return o
}

func (o Options) validate() error {
	bad := func(name string, v any) error {
		return fmt.Errorf("profile: invalid option %s=%v", name, v)
	}
	switch {
	case o.TrialSeconds < 0:
		return bad("TrialSeconds", o.TrialSeconds)
	case o.Trials < 0:
		return bad("Trials", o.Trials)
	}
	return nil
}

// OperatorCost is one operator's saturation-delta price.
type OperatorCost struct {
	// Operator is the stage toggle name (testbed.Stage* constant).
	Operator string
	// Description says what the ablation removes.
	Description string
	// FullPps and AblatedPps are the median saturation rates of the
	// full and ablated pipelines over the replicated trials.
	FullPps, AblatedPps float64
	// DeltaPps is the median of the paired per-trial deltas
	// (ablated − full); see the package sign convention.
	DeltaPps float64
	// DeltaCI is the bootstrap CI of the median paired delta.
	DeltaCI stats.Interval
	// Share is DeltaPps as a fraction of the full-pipeline saturation.
	Share float64
	// Trials is the number of paired trials behind the delta.
	Trials int
}

// StageLoad is one device's sampled load during a bottleneck
// observation run.
type StageLoad struct {
	Device    string
	MeanUtil  float64
	MaxUtil   float64
	MeanQueue float64
	MaxQueue  int
	Samples   int
}

// RegimeBottleneck names the bottleneck device of one load regime.
type RegimeBottleneck struct {
	// Regime labels the load regime ("pre-knee", "post-knee").
	Regime string
	// LoadFraction is the offered load as a fraction of saturation.
	LoadFraction float64
	// OfferedPps is the absolute offered rate.
	OfferedPps float64
	// LossFraction is the measured loss at that rate.
	LossFraction float64
	// Device is the bottleneck: highest mean sampled utilization, ties
	// broken by peak queue depth.
	Device string
	// Utilization and MaxQueue are the bottleneck's figures.
	Utilization float64
	MaxQueue    int
	// Stages lists every sampled device's load, in sampler order.
	Stages []StageLoad
}

// Profile is the full profiling result for one system.
type Profile struct {
	// System is the profiled deployment's name.
	System string
	// Trials is the number of replicated saturation searches.
	Trials int
	// SaturationPps and SaturationGbps are the medians over trials of
	// the full pipeline's zero-loss saturation point.
	SaturationPps  float64
	SaturationGbps float64
	// SaturationCI is the bootstrap CI of the median saturation rate.
	SaturationCI stats.Interval
	// Operators prices each ablatable operator, in catalogue order.
	Operators []OperatorCost
	// Regimes names the bottleneck per observed load regime.
	Regimes []RegimeBottleneck
}

// saturations runs one replicated saturation search for a pipeline
// variant, returning per-trial (pps, gbps) vectors indexed by trial.
// Per-trial seeds depend only on (o.Seed, trial), so the full and
// ablated variants see identical workloads trial by trial — the deltas
// are paired.
func saturations(t testbed.ProfileTarget, ablate []string, o Options) (pps, gbps []float64, err error) {
	for k := 0; k < o.Trials; k++ {
		seed := stats.TrialSeed(o.Seed, k)
		res, err := rfc2544.Throughput(
			func() (*testbed.Deployment, error) { return t.Make(ablate) },
			func() (*workload.Generator, error) { return t.Workload(seed) },
			rfc2544.Opts{
				MinPps:             0.2e6,
				MaxPps:             t.MaxPps,
				TrialSeconds:       o.TrialSeconds,
				ResolutionFraction: o.ResolutionFraction,
			})
		if err != nil {
			return nil, nil, fmt.Errorf("profile: %s (ablate %v) trial %d: %w", t.System, ablate, k, err)
		}
		pps = append(pps, res.Pps)
		gbps = append(gbps, res.Gbps)
	}
	return pps, gbps, nil
}

// bottleneckAt observes the full pipeline at a fraction of its
// saturation rate and names the hottest device.
func bottleneckAt(t testbed.ProfileTarget, regime string, frac, satPps float64, o Options) (RegimeBottleneck, error) {
	out := RegimeBottleneck{Regime: regime, LoadFraction: frac, OfferedPps: frac * satPps}
	d, err := t.Make(nil)
	if err != nil {
		return out, err
	}
	g, err := t.Workload(o.Seed)
	if err != nil {
		return out, err
	}
	tr := obs.New(nil)
	d.Observe(tr, o.TrialSeconds/observeSamples)
	res, err := d.Run(g, workload.CBR{}, out.OfferedPps, o.TrialSeconds)
	if err != nil {
		return out, err
	}
	out.LossFraction = res.LossFraction
	// Sampler source names carry the deployment prefix
	// ("fw-smartnic/smartnic"); strip it — the profile is per system.
	short := func(dev string) string { return strings.TrimPrefix(dev, t.System+"/") }
	for _, u := range tr.Utilization().Devices() {
		out.Stages = append(out.Stages, StageLoad{
			Device:    short(u.Device),
			MeanUtil:  u.MeanUtil(),
			MaxUtil:   u.MaxUtil,
			MeanQueue: u.MeanQueue(),
			MaxQueue:  u.MaxQueue,
			Samples:   u.Samples,
		})
	}
	bn, ok := tr.Utilization().Bottleneck()
	if !ok {
		return out, fmt.Errorf("profile: %s %s: no device samples recorded", t.System, regime)
	}
	out.Device = short(bn.Device)
	out.Utilization = bn.MeanUtil()
	out.MaxQueue = bn.MaxQueue
	return out, nil
}

// Run profiles one target: replicated full-pipeline saturation search,
// per-operator ablated re-searches with paired-delta bootstrap CIs, and
// bottleneck observation at the pre-knee and post-knee regimes.
func Run(t testbed.ProfileTarget, o Options) (Profile, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Profile{}, err
	}
	p := Profile{System: t.System, Trials: o.Trials}

	fullPps, fullGbps, err := saturations(t, nil, o)
	if err != nil {
		return p, err
	}
	p.SaturationPps = stats.Median(fullPps)
	p.SaturationGbps = stats.Median(fullGbps)
	if p.SaturationPps == 0 {
		return p, fmt.Errorf("%w: %s", ErrNoSaturation, t.System)
	}
	p.SaturationCI, err = stats.MedianCI(fullPps, o.Level, stats.MixSeed(o.Seed, 1))
	if err != nil {
		return p, err
	}

	for i, st := range t.Stages {
		ablPps, _, err := saturations(t, []string{st.Name}, o)
		if err != nil {
			return p, err
		}
		deltas := make([]float64, len(ablPps))
		for k := range ablPps {
			deltas[k] = ablPps[k] - fullPps[k]
		}
		ci, err := stats.MedianCI(deltas, o.Level, stats.MixSeed(o.Seed, uint64(i)+2))
		if err != nil {
			return p, err
		}
		p.Operators = append(p.Operators, OperatorCost{
			Operator:    st.Name,
			Description: st.Description,
			FullPps:     p.SaturationPps,
			AblatedPps:  stats.Median(ablPps),
			DeltaPps:    stats.Median(deltas),
			DeltaCI:     ci,
			Share:       stats.Median(deltas) / p.SaturationPps,
			Trials:      o.Trials,
		})
	}

	for _, reg := range []struct {
		name string
		frac float64
	}{{"pre-knee", preKneeFraction}, {"post-knee", postKneeFraction}} {
		rb, err := bottleneckAt(t, reg.name, reg.frac, p.SaturationPps, o)
		if err != nil {
			return p, err
		}
		p.Regimes = append(p.Regimes, rb)
	}
	return p, nil
}
