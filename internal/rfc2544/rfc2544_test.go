package rfc2544

import (
	"testing"

	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

func baselineDUT(cores int) DUTFactory {
	return func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(cores) }
}

func e6gen() GenFactory {
	return func() (*workload.Generator, error) { return testbed.E6Workload(1) }
}

// fastOpts keeps simulated trial time small for unit tests.
var fastOpts = Opts{
	MinPps:       0.2e6,
	MaxPps:       12e6,
	TrialSeconds: 0.01,
}

func TestThroughputSearchFindsCoreCapacity(t *testing.T) {
	res, err := Throughput(baselineDUT(1), e6gen(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// One scenario core sustains ≈3.2 Mpps of the E6 mix.
	if res.Pps < 2.5e6 || res.Pps > 4.2e6 {
		t.Errorf("zero-loss throughput = %v pps, want ≈3.2M", res.Pps)
	}
	if res.Gbps < 6 || res.Gbps > 13 {
		t.Errorf("throughput = %v Gb/s, want ≈10", res.Gbps)
	}
	if len(res.Trials) < 4 {
		t.Errorf("binary search should take several trials, got %d", len(res.Trials))
	}
	// The passing trial itself must meet the threshold.
	if res.Passing.LossFraction > 0.001 {
		t.Errorf("reported throughput has loss %v", res.Passing.LossFraction)
	}
}

func TestThroughputScalesWithCores(t *testing.T) {
	one, err := Throughput(baselineDUT(1), e6gen(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Throughput(baselineDUT(2), e6gen(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	ratio := two.Pps / one.Pps
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2-core/1-core throughput ratio = %.2f, want ≈2 (Figure 1b's premise)", ratio)
	}
}

func TestThroughputCeilingSustained(t *testing.T) {
	// With a tiny ceiling the DUT passes at MaxPps and the search
	// reports the ceiling.
	opts := fastOpts
	opts.MaxPps = 1e6
	res, err := Throughput(baselineDUT(1), e6gen(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pps != 1e6 {
		t.Errorf("ceiling throughput = %v, want 1e6", res.Pps)
	}
}

func TestThroughputFloorOverloaded(t *testing.T) {
	// With a floor far above capacity, even MinPps fails → zero.
	opts := fastOpts
	opts.MinPps = 30e6
	opts.MaxPps = 40e6
	res, err := Throughput(baselineDUT(1), e6gen(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pps != 0 {
		t.Errorf("overloaded floor should yield 0, got %v", res.Pps)
	}
}

func TestThroughputValidatesBounds(t *testing.T) {
	if _, err := Throughput(baselineDUT(1), e6gen(), Opts{MinPps: 10, MaxPps: 5, TrialSeconds: 0.001}); err == nil {
		t.Error("inverted bounds should fail")
	}
}

func TestLatencyAtLoadsMonotone(t *testing.T) {
	pts, err := LatencyAtLoads(baselineDUT(1), e6gen(), 3e6, []float64{0.1, 0.5, 0.9}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Queueing: p99 latency grows with load.
	if !(pts[0].P99Us <= pts[1].P99Us && pts[1].P99Us <= pts[2].P99Us) {
		t.Errorf("p99 not monotone with load: %v / %v / %v", pts[0].P99Us, pts[1].P99Us, pts[2].P99Us)
	}
	if pts[0].MeanUs <= 0 {
		t.Error("latency should be positive")
	}
}

func TestLatencyAtLoadsValidation(t *testing.T) {
	if _, err := LatencyAtLoads(baselineDUT(1), e6gen(), 0, []float64{0.5}, fastOpts); err == nil {
		t.Error("zero throughput should fail")
	}
	if _, err := LatencyAtLoads(baselineDUT(1), e6gen(), 1e6, []float64{-1}, fastOpts); err == nil {
		t.Error("negative fraction should fail")
	}
}

func TestFrameLossCurveMonotoneAfterKnee(t *testing.T) {
	rates := []float64{1e6, 3e6, 6e6, 9e6}
	pts, err := FrameLossCurve(baselineDUT(1), e6gen(), rates, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].LossFraction > 0.001 {
		t.Errorf("below-capacity loss = %v", pts[0].LossFraction)
	}
	if pts[3].LossFraction < 0.5 {
		t.Errorf("3x-capacity loss = %v, want heavy", pts[3].LossFraction)
	}
	if pts[2].LossFraction > pts[3].LossFraction {
		t.Error("loss should not decrease with offered load beyond the knee")
	}
}

func TestFrameLossCurveValidation(t *testing.T) {
	if _, err := FrameLossCurve(baselineDUT(1), e6gen(), []float64{0}, fastOpts); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestBackToBack(t *testing.T) {
	// At 4x core capacity, the queue (512 descriptors) bounds burst
	// tolerance.
	burst, err := BackToBack(baselineDUT(1), e6gen())
	if err != nil {
		t.Fatal(err)
	}
	if burst <= 0 || burst >= maxBurst {
		t.Errorf("burst tolerance = %d, want inside (0, %d)", burst, maxBurst)
	}
	// Cores that sustain burstPps absorb the longest burst searched.
	burst2, err := BackToBack(baselineDUT(8), e6gen())
	if err != nil {
		t.Fatal(err)
	}
	if burst2 != maxBurst {
		t.Errorf("sustainable-rate burst = %d, want ceiling %d", burst2, maxBurst)
	}
}
