package testbed

import (
	"bytes"
	"errors"
	"testing"

	"fairbench/internal/hw"
	"fairbench/internal/workload"
)

// requireNoLatencyRejects fails the test when the last run of d had
// latency samples refused by the histogram.
func requireNoLatencyRejects(t *testing.T, d *Deployment) {
	t.Helper()
	if n := d.latRejects; n != 0 {
		t.Errorf("%s: %d latency samples rejected", d.cfg.Name, n)
	}
}

// requireConserved recomputes the conservation identity collect checks
// — offered = processed + lost + in flight — from the run's meters.
func requireConserved(t *testing.T, d *Deployment, res Result) {
	t.Helper()
	lost := d.tput.LostPackets
	if res.Offered.Packets != res.Processed.Packets+lost+d.inFlight {
		t.Errorf("%s: offered %d != processed %d + lost %d + in flight %d",
			d.cfg.Name, res.Offered.Packets, res.Processed.Packets, lost, d.inFlight)
	}
	if res.Offered.Packets == 0 {
		t.Errorf("%s: nothing offered", d.cfg.Name)
	}
	requireNoLatencyRejects(t, d)
}

func TestConservationSwitchPredrop(t *testing.T) {
	d, err := SwitchFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.Poisson{}, 2e6, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d.sw.PreDropped == 0 {
		t.Fatal("the switch pre-dropped nothing")
	}
	requireConserved(t, d, res)
}

func TestConservationFPGASpillToHost(t *testing.T) {
	d, err := New(Config{
		Name:         "fw-fpga-host",
		Cores:        2,
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
	if d.fpga.Overflowed == 0 {
		t.Fatal("2 Mpps into a 1 Mpps pipeline did not overflow to the host")
	}
	requireConserved(t, d, res)
}

func TestConservationSmartNICOutage(t *testing.T) {
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 4e6, testDuration,
		mustFaultSpec(t, "outage:dev=smartnic,at=5ms,for=5ms"))
	if err != nil {
		t.Fatal(err)
	}
	if d.tput.LostPackets == 0 {
		t.Fatal("the outage lost nothing")
	}
	requireConserved(t, d, res)
}

func TestConservationLinkDrop(t *testing.T) {
	d, err := BaselineFirewall(2)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, 2e6, testDuration,
		mustFaultSpec(t, "linkloss:prob=0.05;seed:3"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinkDropped == 0 {
		t.Fatal("no packet was dropped on the link")
	}
	requireConserved(t, d, res)
}

func TestConservationTraceReplay(t *testing.T) {
	var rec bytes.Buffer
	if err := workload.Record(&rec, e6gen(t), workload.CBR{}, 2e6, 20000); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTraceReader(&rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered.Packets != 20000 {
		t.Errorf("replayed %d packets, recorded 20000", res.Offered.Packets)
	}
	requireConserved(t, d, res)
}

// TestConservationCountsInFlight: a core so slow that most queued
// packets are still in service at the drain cutoff keeps the identity
// balanced only by counting them in flight.
func TestConservationCountsInFlight(t *testing.T) {
	d, err := New(Config{
		Name:    "fw-slow-core",
		CoreCfg: hw.CPUConfig{FreqHz: 1e4},
		NewNF:   firewallFactory(canonicalMatcher()),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(e6gen(t), workload.CBR{}, 1e5, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	if d.inFlight == 0 {
		t.Fatal("no packet was in flight at the cutoff")
	}
	requireConserved(t, d, res)
}

// TestConservationErrorIsTyped: an accounting that does not balance
// fails collect with a ConservationError naming the counts.
func TestConservationErrorIsTyped(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(e6gen(t), workload.CBR{}, 1e6, testDuration); err != nil {
		t.Fatal(err)
	}
	d.tput.Offer(64) // an offered packet that never reached dispatch
	_, err = d.collect(testDuration)
	var ce *ConservationError
	if !errors.As(err, &ce) {
		t.Fatalf("collect error = %v, want a *ConservationError", err)
	}
	if ce.Offered != ce.Processed+ce.Lost+ce.InFlight+1 || ce.Deployment != d.cfg.Name {
		t.Errorf("error counts = %+v, want offered one more than the rest", ce)
	}
}
