package testbed

import (
	"bytes"
	"reflect"
	"testing"

	"fairbench/internal/fault"
	"fairbench/internal/hw"
	"fairbench/internal/packet"
	"fairbench/internal/workload"
)

func mustFaultSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmartNICOutageFailover is the headline failover property: a
// SmartNIC outage mid-run degrades service to the host slow path —
// availability dips below 1, loss is bounded well under the offload's
// traffic share, and the meter sees the recovery.
func TestSmartNICOutageFailover(t *testing.T) {
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	// 4 Mpps: just under fast-path capacity, above what the single
	// host core sustains alone, so the outage visibly degrades service.
	res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 4e6, testDuration,
		mustFaultSpec(t, "outage:dev=smartnic,at=5ms,for=5ms"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 1 {
		t.Fatalf("windows = %+v, want exactly one", rep.Windows)
	}
	if rep.Avail.Availability >= 1 {
		t.Error("outage did not dent availability")
	}
	if rep.Avail.Availability < 0.85 {
		t.Errorf("availability = %v: failover should keep most traffic flowing", rep.Avail.Availability)
	}
	if rep.Avail.DegradationDepth <= 0 {
		t.Error("no degradation depth recorded")
	}
	if rep.Avail.RecoverySeconds <= 0 {
		t.Error("no recovery episode recorded")
	}
	// Traffic degrades to the host instead of silently dropping: loss
	// stays far below the fast path's share of healthy traffic.
	if res.LossFraction <= 0 || res.LossFraction > 0.25 {
		t.Errorf("loss = %v, want bounded in (0, 0.25]", res.LossFraction)
	}
	if res.Processed.Packets == 0 {
		t.Fatal("nothing processed")
	}
}

// TestFaultTargetAbsentDeviceIsNoop: the same environment spec applies
// to every compared system; a host-only deployment simply has no
// SmartNIC to lose, so the faulted run matches the healthy one exactly.
func TestFaultTargetAbsentDeviceIsNoop(t *testing.T) {
	run := func(spec fault.Spec) (Result, FaultReport) {
		d, err := BaselineFirewall(2)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 2e6, testDuration, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	healthy, _ := run(fault.Spec{})
	faulted, rep := run(mustFaultSpec(t, "outage:dev=smartnic,at=5ms,for=5ms"))
	if healthy.Processed != faulted.Processed || healthy.Offered != faulted.Offered ||
		healthy.LatencyP99Us != faulted.LatencyP99Us {
		t.Errorf("smartnic outage perturbed a host-only deployment:\nhealthy %+v\nfaulted %+v", healthy, faulted)
	}
	if rep.Avail.Availability != 1 {
		t.Errorf("availability = %v, want 1 (fault targets an absent device)", rep.Avail.Availability)
	}
}

// TestFPGAOverflowAccounting pins the satellite-1 fix: with no host
// cores, every offered packet is either processed or counted as loss in
// the measured window — ingress overflow cannot leak packets out of the
// accounting.
func TestFPGAOverflowAccounting(t *testing.T) {
	d, err := FPGAFirewall(hw.FPGAConfig{CapacityPps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.Poisson{}, 4e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d.fpga.Overflowed == 0 {
		t.Fatal("4 Mpps into a 1 Mpps pipeline did not overflow")
	}
	// Conservation: every offered packet is processed or counted as
	// loss, modulo the pipeline's small ingress buffer still in flight
	// at the horizon.
	lost := uint64(res.LossFraction*float64(res.Offered.Packets) + 0.5)
	if res.Processed.Packets+lost > res.Offered.Packets {
		t.Errorf("processed %d + lost %d exceeds offered %d",
			res.Processed.Packets, lost, res.Offered.Packets)
	}
	if gap := res.Offered.Packets - res.Processed.Packets - lost; gap > 200 {
		t.Errorf("%d offered packets unaccounted for (want ≤ in-flight buffer)", gap)
	}
	if res.LossFraction <= 0.5 {
		t.Errorf("loss = %v, want most of a 4x overload lost", res.LossFraction)
	}
}

// TestFPGAOverflowFailsOverToHost: the same overload with host cores
// present spills to the slow path instead of dropping.
func TestFPGAOverflowFailsOverToHost(t *testing.T) {
	mk := func(cores int) Result {
		d, err := New(Config{
			Name:         "fw-fpga-host",
			Cores:        cores,
			CoreCfg:      ScenarioCore,
			ChassisWatts: ScenarioChassisWatts,
			NICWatts:     ScenarioNICWatts,
			FPGA:         &hw.FPGAConfig{CapacityPps: 1e6},
			NewNF:        firewallFactory(canonicalMatcher()),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(e6gen(t), workload.Poisson{}, 2e6, testDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withHost := mk(2)
	if withHost.LossFraction > 0.01 {
		t.Errorf("loss with host failover = %v, want ≈0 (2 cores absorb the spill)", withHost.LossFraction)
	}
}

// TestFPGAOutageFailsOverToHost: an injected FPGA outage degrades to
// the host cores; the pipeline's Unavailable counter proves the outage
// was exercised.
func TestFPGAOutageFailsOverToHost(t *testing.T) {
	d, err := New(Config{
		Name:         "fw-fpga-host",
		Cores:        2,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		NICWatts:     ScenarioNICWatts,
		FPGA:         &hw.FPGAConfig{},
		NewNF:        firewallFactory(canonicalMatcher()),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 2e6, testDuration,
		mustFaultSpec(t, "outage:dev=fpga,at=5ms,for=5ms"))
	if err != nil {
		t.Fatal(err)
	}
	if d.fpga.Unavailable == 0 {
		t.Fatal("outage window saw no pipeline rejections")
	}
	if res.LossFraction > 0.01 {
		t.Errorf("loss = %v, want ≈0 (host absorbs the outage at 2 Mpps)", res.LossFraction)
	}
	if rep.Avail.Availability < 0.99 {
		t.Errorf("availability = %v, want ≈1 under clean failover", rep.Avail.Availability)
	}
}

// TestSwitchOutageFailsOpen: a downed switch preprocessor is bypassed;
// the host firewall holds the full rule set, so classification is
// preserved and nothing is lost at moderate load.
func TestSwitchOutageFailsOpen(t *testing.T) {
	gen := func() *workload.Generator {
		g, err := workload.NewGenerator(workload.Spec{Flows: 4096, AttackFraction: 0.75, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(spec fault.Spec) (*Deployment, Result) {
		d, err := SwitchFirewall(2)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := d.RunWithFaults(gen(), workload.Poisson{}, 1e6, testDuration, spec)
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}
	dh, healthy := run(fault.Spec{})
	if dh.sw.PreDropped == 0 {
		t.Fatal("healthy switch run pre-dropped nothing")
	}
	df, faulted := run(mustFaultSpec(t, "outage:dev=switch,at=0,for=0"))
	if df.sw.PreDropped != 0 {
		t.Errorf("downed switch still processed %d packets", df.sw.PreDropped)
	}
	if faulted.LossFraction > 0.01 {
		t.Errorf("fail-open loss = %v, want ≈0", faulted.LossFraction)
	}
	// The same policy outcome, now enforced by the host: processed
	// packet counts match (every offered packet still gets a verdict).
	if healthy.Offered.Packets != faulted.Offered.Packets {
		t.Errorf("offered differs: %d vs %d", healthy.Offered.Packets, faulted.Offered.Packets)
	}
}

// TestLinkLossFaults: ingress loss counts against availability and the
// loss fraction, with the casualty count reported.
func TestLinkLossFaults(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 1e6, testDuration,
		mustFaultSpec(t, "linkloss:prob=0.3"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinkDropped == 0 {
		t.Fatal("no link drops recorded")
	}
	if res.LossFraction < 0.25 || res.LossFraction > 0.35 {
		t.Errorf("loss = %v, want ≈0.3", res.LossFraction)
	}
	if rep.Avail.Availability < 0.65 || rep.Avail.Availability > 0.75 {
		t.Errorf("availability = %v, want ≈0.7", rep.Avail.Availability)
	}
}

// TestLinkCorruptFaults: corrupted frames reach the DUT; header
// corruption is caught by validation and surfaces as loss.
func TestLinkCorruptFaults(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	res, rep, err := d.RunWithFaults(g, workload.CBR{}, 1e6, testDuration,
		mustFaultSpec(t, "linkcorrupt:prob=0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinkCorrupted == 0 {
		t.Fatal("no corruption recorded")
	}
	if res.LossFraction == 0 {
		t.Error("corrupted frames should produce some parse-level loss")
	}
	if res.LossFraction > 0.25 {
		t.Errorf("loss = %v cannot exceed the corruption rate by much", res.LossFraction)
	}
	// The link flips bytes of private copies: the generator's shared
	// templates must still parse.
	p := packet.NewParser()
	for i := 0; i < 1000; i++ {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(pk.Frame); err != nil {
			t.Fatalf("template corrupted by a link fault: %v", err)
		}
	}
}

// TestLinkDupFaults: a duplicated packet is offered a second time, so
// the offered count is the healthy run's plus the duplicates, and every
// copy is accounted for.
func TestLinkDupFaults(t *testing.T) {
	healthy, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := healthy.Run(e6gen(t), workload.CBR{}, 1e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 1e6, testDuration,
		mustFaultSpec(t, "linkdup:prob=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinkDuplicated == 0 {
		t.Fatal("no duplicates recorded")
	}
	if got, want := res.Offered.Packets, base.Offered.Packets+rep.LinkDuplicated; got != want {
		t.Errorf("offered %d packets, want %d arrivals + %d duplicates = %d",
			got, base.Offered.Packets, rep.LinkDuplicated, want)
	}
	if got := res.Offered.PacketsPerSecond(); got < 1.4e6 || got > 1.6e6 {
		t.Errorf("offered with duplication = %v pps, want ≈1.5M", got)
	}
	requireConserved(t, d, res)
}

// TestLinkFreeFaultsMatchPlainRuns: a spec with no link or burst clause
// leaves the ingress path untouched, so a faulted run whose device
// faults hit nothing measures exactly what the plain run does, for both
// generated and replayed traffic.
func TestLinkFreeFaultsMatchPlainRuns(t *testing.T) {
	specs := []fault.Spec{{}, mustFaultSpec(t, "outage:dev=fpga,at=5ms,for=5ms;brownout:dev=switch,at=0,for=0,factor=0.5")}
	var rec bytes.Buffer
	if err := workload.Record(&rec, e6gen(t), workload.Poisson{}, 2e6, 20000); err != nil {
		t.Fatal(err)
	}
	trace := func() *workload.TraceReader {
		tr, err := workload.NewTraceReader(bytes.NewReader(rec.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	for _, spec := range specs {
		d, err := SmartNICFirewall()
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Run(e6gen(t), workload.Poisson{}, 4e6, testDuration)
		if err != nil {
			t.Fatal(err)
		}
		d, err = SmartNICFirewall()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 4e6, testDuration, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunWithFaults(%q) differs from Run:\n%+v\n%+v", spec, got, want)
		}

		d, err = SmartNICFirewall()
		if err != nil {
			t.Fatal(err)
		}
		want, err = d.RunTrace(trace(), 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err = SmartNICFirewall()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = d.RunTraceWithFaults(trace(), 1, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunTraceWithFaults(%q) differs from RunTrace:\n%+v\n%+v", spec, got, want)
		}
	}
}

// TestBurstOverloadFaults: a burst window multiplies the offered rate.
func TestBurstOverloadFaults(t *testing.T) {
	run := func(spec fault.Spec) Result {
		d, err := BaselineFirewall(1)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 1e6, testDuration, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(fault.Spec{})
	burst := run(mustFaultSpec(t, "burst:factor=3,at=5ms,for=5ms"))
	// A 3x burst over a quarter of the run adds ≈50% more packets.
	lo := float64(healthy.Offered.Packets) * 1.3
	hi := float64(healthy.Offered.Packets) * 1.7
	got := float64(burst.Offered.Packets)
	if got < lo || got > hi {
		t.Errorf("burst offered %v packets, want in [%v, %v] (healthy %d)",
			got, lo, hi, healthy.Offered.Packets)
	}
}

// TestCoreBrownoutDegrades: derated cores serve slower, which shows up
// as queueing latency or loss at a rate the healthy system sustains.
func TestCoreBrownoutDegrades(t *testing.T) {
	run := func(spec fault.Spec) Result {
		d, err := BaselineFirewall(1)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 3e6, testDuration, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(fault.Spec{})
	browned := run(mustFaultSpec(t, "brownout:dev=cores,at=5ms,for=10ms,factor=0.5"))
	if browned.LossFraction <= healthy.LossFraction && browned.LatencyP99Us <= healthy.LatencyP99Us {
		t.Errorf("brownout had no measurable effect: healthy loss=%v p99=%v, browned loss=%v p99=%v",
			healthy.LossFraction, healthy.LatencyP99Us, browned.LossFraction, browned.LatencyP99Us)
	}
}

// TestRunWithFaultsValidation: malformed params surface as errors.
func TestRunWithFaultsValidation(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 0, testDuration, fault.Spec{}); err == nil {
		t.Error("zero pps accepted")
	}
	bad := fault.Spec{Clauses: []fault.Clause{{Kind: fault.Brownout, Target: fault.TargetCores, Severity: 2}}}
	if _, _, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 1e6, testDuration, bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestLinkFaultProbValidation checks that a run rejects a link clause
// whose probability is out of range, also when the spec was built
// directly rather than parsed.
func TestLinkFaultProbValidation(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []fault.Kind{fault.LinkLoss, fault.LinkCorrupt, fault.LinkDup} {
		for _, p := range []float64{-0.1, 1.5} {
			spec := fault.Spec{Clauses: []fault.Clause{{Kind: k, Severity: p}}}
			if _, _, err := d.RunWithFaults(e6gen(t), workload.CBR{}, 1e6, 0.001, spec); err == nil {
				t.Errorf("%v with probability %v accepted", k, p)
			}
		}
	}
}
