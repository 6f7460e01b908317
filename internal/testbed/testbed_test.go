package testbed

import (
	"math"
	"testing"

	"fairbench/internal/cost"
	"fairbench/internal/hw"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/workload"
)

const testDuration = 0.02 // seconds of simulated time per run

func e6gen(t *testing.T) *workload.Generator {
	t.Helper()
	g, err := E6Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBaselinePowerMatchesPaper(t *testing.T) {
	for _, tc := range []struct {
		cores int
		want  float64
	}{{1, 50}, {2, 80}} {
		d, err := BaselineFirewall(tc.cores)
		if err != nil {
			t.Fatal(err)
		}
		w, err := d.ProvisionedPowerWatts()
		if err != nil {
			t.Fatal(err)
		}
		if w != tc.want {
			t.Errorf("%d-core baseline power = %v W, want %v (paper §4.2)", tc.cores, w, tc.want)
		}
	}
}

func TestSmartNICPowerMatchesPaper(t *testing.T) {
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.ProvisionedPowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	if w != 70 {
		t.Errorf("SmartNIC system power = %v W, want 70 (paper §4.2)", w)
	}
}

func TestSwitchPowerMatchesPaper(t *testing.T) {
	d, err := SwitchFirewall(3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.ProvisionedPowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	if w != 200 {
		t.Errorf("switch system power = %v W, want 200 (paper §4.2.1)", w)
	}
}

func TestBaselineRunUnderloaded(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.CBR{}, 1e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction > 0.001 {
		t.Errorf("1 Mpps on a ~3 Mpps core lost %.2f%%", res.LossFraction*100)
	}
	if math.Abs(res.Processed.PacketsPerSecond()-1e6) > 5e4 {
		t.Errorf("processed = %v pps, want ≈1M", res.Processed.PacketsPerSecond())
	}
	// Forwarded < processed: attack traffic is policy-dropped.
	if res.Forwarded.Packets >= res.Processed.Packets {
		t.Error("policy drops should make forwarded < processed")
	}
	if res.LatencyP50Us <= 0 {
		t.Error("latency should be measured")
	}
	if res.AvgPowerWatts <= 0 || res.AvgPowerWatts > res.ProvisionedPowerWatts {
		t.Errorf("avg power %v vs provisioned %v", res.AvgPowerWatts, res.ProvisionedPowerWatts)
	}
}

func TestBaselineRunOverloaded(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.CBR{}, 8e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction < 0.3 {
		t.Errorf("8 Mpps on a ~3 Mpps core should lose heavily; loss = %.2f%%", res.LossFraction*100)
	}
	// The core saturates: processed rate well below offered.
	if res.Processed.PacketsPerSecond() > 4.5e6 {
		t.Errorf("processed %v pps exceeds plausible single-core capacity", res.Processed.PacketsPerSecond())
	}
}

func TestTwoCoresDoubleCapacity(t *testing.T) {
	run := func(cores int) float64 {
		d, err := BaselineFirewall(cores)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(e6gen(t), workload.CBR{}, 12e6, testDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res.Processed.PacketsPerSecond()
	}
	one, two := run(1), run(2)
	ratio := two / one
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2-core/1-core capacity ratio = %.2f, want ≈2", ratio)
	}
}

func TestSmartNICBeatsBaselineThroughput(t *testing.T) {
	base, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(e6gen(t), workload.CBR{}, 8e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	accelRes, err := accel.Run(e6gen(t), workload.CBR{}, 8e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	ratio := accelRes.Processed.PacketsPerSecond() / baseRes.Processed.PacketsPerSecond()
	if ratio < 1.5 {
		t.Errorf("SmartNIC speedup = %.2fx, want >= 1.5x (paper: ≈2x)", ratio)
	}
	if accel.SmartNIC().Offloaded == 0 {
		t.Error("fast path never used")
	}
}

func TestSwitchPreFilteringOffloadsHost(t *testing.T) {
	g, err := E7Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := SwitchFirewall(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(g, workload.CBR{}, 20e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d.Switch().PreDropped == 0 {
		t.Fatal("switch never dropped attack traffic")
	}
	dropFrac := float64(d.Switch().PreDropped) / float64(d.Switch().PreDropped+d.Switch().Passed)
	if math.Abs(dropFrac-0.75) > 0.05 {
		t.Errorf("switch pre-drop fraction = %.2f, want ≈0.75", dropFrac)
	}
	// The whole 20 Mpps offered load is processed with little loss
	// because 75% never reaches the host.
	if res.LossFraction > 0.02 {
		t.Errorf("loss with switch preprocessing = %.2f%%", res.LossFraction*100)
	}

	// The host-only baseline at the same load must collapse.
	g2, _ := E7Workload(1)
	host, err := BaselineFirewall(3)
	if err != nil {
		t.Fatal(err)
	}
	hostRes, err := host.Run(g2, workload.CBR{}, 20e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if hostRes.LossFraction < 0.3 {
		t.Errorf("host-only at 20 Mpps should overload; loss = %.2f%%", hostRes.LossFraction*100)
	}
}

func TestFPGALowFixedLatency(t *testing.T) {
	d, err := FPGAFirewall(hw.FPGAConfig{CapacityPps: 20e6, PipelineLatencySeconds: 1e-6, ActiveWatts: 45})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.CBR{}, 2e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction > 0.001 {
		t.Errorf("FPGA underloaded loss = %v", res.LossFraction)
	}
	if res.LatencyP99Us > 2 {
		t.Errorf("FPGA p99 latency = %v µs, want ≈1µs fixed pipeline", res.LatencyP99Us)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		d, err := BaselineFirewall(1)
		if err != nil {
			t.Fatal(err)
		}
		g := e6gen(t)
		res, err := d.Run(g, workload.Poisson{}, 2e6, testDuration)
		if err != nil {
			t.Fatal(err)
		}
		requireNoLatencyRejects(t, d)
		return res
	}
	a, b := run(), run()
	if a.Processed.Packets != b.Processed.Packets || a.LatencyP99Us != b.LatencyP99Us || a.AvgPowerWatts != b.AvgPowerWatts {
		t.Errorf("same seed must reproduce identical results:\n%+v\n%+v", a, b)
	}
}

func TestCostVectorCoverage(t *testing.T) {
	// The SmartNIC deployment's components all report power; cores
	// metric fails coverage once the SmartNIC is present.
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	comps := d.Components()
	names := []string{metric.MetricPower, metric.MetricCores}
	cov := costCoverage(names, comps)
	if !cov[metric.MetricPower] {
		t.Error("power must cover the whole deployment")
	}
	if cov[metric.MetricCores] {
		t.Error("cores cannot cover a deployment containing a SmartNIC")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Error("missing NewNF should fail")
	}
	nfFactory := firewallFactory(FirewallRules(1))
	if _, err := New(Config{Name: "x", Cores: -1, NewNF: nfFactory}); err == nil {
		t.Error("negative cores should fail")
	}
	fpga, snic := hw.FPGAConfig{}, hw.SmartNICConfig{}
	if _, err := New(Config{Name: "x", FPGA: &fpga, SmartNIC: &snic, NewNF: nfFactory}); err == nil {
		t.Error("FPGA+SmartNIC should fail")
	}
	d, err := New(Config{Name: "x", NewNF: nfFactory})
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	if _, err := d.Run(g, workload.CBR{}, 0, 1); err == nil {
		t.Error("zero pps should fail")
	}
	if _, err := d.Run(g, workload.CBR{}, 1, -1); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestMutatingNFDeployment(t *testing.T) {
	// A NAT deployment must see valid frames and keep them valid; the
	// harness hands it copies so generator templates stay pristine.
	d, err := New(Config{
		Name:          "nat-host",
		Cores:         1,
		CoreCfg:       ScenarioCore,
		ChassisWatts:  ScenarioChassisWatts,
		NICWatts:      ScenarioNICWatts,
		MutatesFrames: true,
		NewNF: func(core int) (nf.Func, error) {
			return nf.NewNAT("nat", packet.Addr4{203, 0, 113, 7}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(workload.Spec{Flows: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(g, workload.CBR{}, 1e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction > 0.001 {
		t.Errorf("NAT run loss = %v", res.LossFraction)
	}
	if res.Forwarded.Packets != res.Processed.Packets {
		t.Error("NAT forwards everything it processes")
	}
	// Generator templates must still parse (not corrupted by rewrites).
	p := packet.NewParser()
	for i := 0; i < 100; i++ {
		pk, _ := g.Next()
		if err := p.Parse(pk.Frame); err != nil {
			t.Fatalf("template corrupted by in-place rewrite: %v", err)
		}
	}
}

// costCoverage adapts cost.Coverage for brevity in tests.
func costCoverage(names []string, comps []cost.Component) map[string]bool {
	covered := make(map[string]bool, len(names))
	for _, n := range names {
		ok := len(comps) > 0
		for _, c := range comps {
			if _, present := c.Costs[n]; !present {
				ok = false
				break
			}
		}
		covered[n] = ok
	}
	return covered
}
