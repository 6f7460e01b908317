// Package rfc2544 implements the benchmarking methodology of RFC 2544
// (Bradner & McQuaid), the community-standard procedure the paper cites
// (§1, reference [2]) as the established way to measure the
// *performance* side of an evaluation: zero-loss throughput via binary
// search over offered load, latency at fractions of that throughput,
// frame-loss-rate curves, and back-to-back burst tolerance.
//
// Each trial builds a fresh device-under-test so state (queues, flow
// tables) never leaks between offered loads, mirroring the RFC's
// requirement that trials be independent.
package rfc2544

import (
	"fmt"

	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// DUTFactory builds a fresh device under test for one trial.
type DUTFactory func() (*testbed.Deployment, error)

// GenFactory builds a fresh (identically seeded) traffic generator for
// one trial.
type GenFactory func() (*workload.Generator, error)

// Opts parameterises a throughput search.
type Opts struct {
	// MinPps and MaxPps bound the binary search (defaults 0.1M, 50M).
	MinPps, MaxPps float64
	// TrialSeconds is the simulated duration per trial (default 20 ms;
	// the RFC's 60 s is unnecessary for a deterministic simulator).
	TrialSeconds float64
	// ResolutionFraction stops the search when the bracket is within
	// this relative width (default 2%).
	ResolutionFraction float64
}

// lossThreshold is the maximum loss fraction of a passing search trial.
// RFC 2544 throughput is strictly zero-loss, but this small epsilon
// (0.1%) keeps discrete-event edge effects from dominating.
const lossThreshold = 0.001

func (o Opts) withDefaults() Opts {
	if o.MinPps == 0 {
		o.MinPps = 0.1e6
	}
	if o.MaxPps == 0 {
		o.MaxPps = 50e6
	}
	if o.TrialSeconds == 0 {
		o.TrialSeconds = 0.02
	}
	if o.ResolutionFraction == 0 {
		o.ResolutionFraction = 0.02
	}
	return o
}

// Trial is one offered-load measurement.
type Trial struct {
	OfferedPps float64
	Loss       float64
	Pass       bool
	Result     testbed.Result
}

// ThroughputResult is the outcome of a throughput search.
type ThroughputResult struct {
	// Pps is the highest offered rate whose loss stayed within
	// threshold.
	Pps float64
	// Gbps is Pps converted using the measured processed bit rate of
	// the passing trial (so it reflects the actual frame mix).
	Gbps float64
	// Passing is the measurement at the reported throughput.
	Passing testbed.Result
	// Trials records the search trajectory.
	Trials []Trial
}

// runTrial executes one independent trial. Offered load is always CBR,
// as the RFC requires.
func runTrial(dut DUTFactory, gen GenFactory, pps, seconds float64) (Trial, error) {
	d, err := dut()
	if err != nil {
		return Trial{}, fmt.Errorf("rfc2544: building DUT: %w", err)
	}
	g, err := gen()
	if err != nil {
		return Trial{}, fmt.Errorf("rfc2544: building generator: %w", err)
	}
	res, err := d.Run(g, workload.CBR{}, pps, seconds)
	if err != nil {
		return Trial{}, err
	}
	return Trial{OfferedPps: pps, Loss: res.LossFraction, Result: res}, nil
}

// Throughput performs the RFC 2544 §26.1 binary search for the highest
// offered rate with (near-)zero loss.
func Throughput(dut DUTFactory, gen GenFactory, opts Opts) (ThroughputResult, error) {
	opts = opts.withDefaults()
	if opts.MinPps <= 0 || opts.MaxPps <= opts.MinPps {
		return ThroughputResult{}, fmt.Errorf("rfc2544: invalid search bounds [%v, %v]", opts.MinPps, opts.MaxPps)
	}
	var out ThroughputResult

	record := func(t Trial) bool {
		t.Pass = t.Loss <= lossThreshold
		out.Trials = append(out.Trials, t)
		if t.Pass && t.OfferedPps > out.Pps {
			out.Pps = t.OfferedPps
			out.Passing = t.Result
		}
		return t.Pass
	}

	// Establish brackets.
	lo, err := runTrial(dut, gen, opts.MinPps, opts.TrialSeconds)
	if err != nil {
		return out, err
	}
	if !record(lo) {
		// Even the minimum rate overloads: report zero throughput.
		return out, nil
	}
	hi, err := runTrial(dut, gen, opts.MaxPps, opts.TrialSeconds)
	if err != nil {
		return out, err
	}
	if record(hi) {
		// The DUT sustains the search ceiling.
		out.Gbps = out.Passing.Processed.GbPerSecond()
		return out, nil
	}

	loPps, hiPps := opts.MinPps, opts.MaxPps
	for hiPps-loPps > opts.ResolutionFraction*hiPps {
		mid := (loPps + hiPps) / 2
		t, err := runTrial(dut, gen, mid, opts.TrialSeconds)
		if err != nil {
			return out, err
		}
		if record(t) {
			loPps = mid
		} else {
			hiPps = mid
		}
	}
	out.Gbps = out.Passing.Processed.GbPerSecond()
	return out, nil
}

// LatencyPoint is the latency measured at a fraction of throughput.
type LatencyPoint struct {
	LoadFraction float64
	OfferedPps   float64
	MeanUs       float64
	P50Us        float64
	P99Us        float64
}

// LatencyAtLoads measures latency at the given fractions of a
// previously determined throughput (RFC 2544 §26.2 measures at the
// throughput rate; fractions generalise to load-latency curves).
func LatencyAtLoads(dut DUTFactory, gen GenFactory, throughputPps float64, fractions []float64, opts Opts) ([]LatencyPoint, error) {
	opts = opts.withDefaults()
	if throughputPps <= 0 {
		return nil, fmt.Errorf("rfc2544: non-positive throughput %v", throughputPps)
	}
	var out []LatencyPoint
	for _, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("rfc2544: non-positive load fraction %v", f)
		}
		t, err := runTrial(dut, gen, throughputPps*f, opts.TrialSeconds)
		if err != nil {
			return nil, err
		}
		out = append(out, LatencyPoint{
			LoadFraction: f,
			OfferedPps:   t.OfferedPps,
			MeanUs:       t.Result.LatencyMeanUs,
			P50Us:        t.Result.LatencyP50Us,
			P99Us:        t.Result.LatencyP99Us,
		})
	}
	return out, nil
}

// LossPoint is one point of a frame-loss-rate curve.
type LossPoint struct {
	OfferedPps   float64
	LossFraction float64
}

// FrameLossCurve measures loss at each offered rate (RFC 2544 §26.3).
func FrameLossCurve(dut DUTFactory, gen GenFactory, rates []float64, opts Opts) ([]LossPoint, error) {
	opts = opts.withDefaults()
	var out []LossPoint
	for _, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("rfc2544: non-positive rate %v", r)
		}
		t, err := runTrial(dut, gen, r, opts.TrialSeconds)
		if err != nil {
			return nil, err
		}
		out = append(out, LossPoint{OfferedPps: r, LossFraction: t.Loss})
	}
	return out, nil
}

// BackToBack finds the longest burst at burstPps the DUT absorbs
// without loss (RFC 2544 §26.4), searching over burst sizes up to
// maxBurst packets.
func BackToBack(dut DUTFactory, gen GenFactory, burstPps float64, maxBurst int, opts Opts) (int, error) {
	opts = opts.withDefaults()
	if burstPps <= 0 || maxBurst <= 0 {
		return 0, fmt.Errorf("rfc2544: invalid burst params pps=%v max=%d", burstPps, maxBurst)
	}
	lossless := func(burst int) (bool, error) {
		seconds := float64(burst) / burstPps
		t, err := runTrial(dut, gen, burstPps, seconds)
		if err != nil {
			return false, err
		}
		return t.Loss == 0, nil
	}
	lo, hi := 0, maxBurst
	ok, err := lossless(maxBurst)
	if err != nil {
		return 0, err
	}
	if ok {
		return maxBurst, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := lossless(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
