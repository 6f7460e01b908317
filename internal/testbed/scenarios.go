package testbed

import (
	"fmt"
	"sync"

	"fairbench/internal/hw"
	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/workload"
)

// This file defines the calibrated scenario configurations that
// reproduce the paper's worked examples (§4.2 SmartNIC firewall,
// §4.2.1 switch preprocessing, §4.3 latency systems). Power figures are
// calibrated so the example deployments land near the paper's numbers:
// chassis 15 W, dataplane core 30 W active, regular NIC 5 W, SmartNIC
// 25 W, switch slice 90 W. Hence:
//
//	baseline 1 core:  15 + 30 + 5        = 50 W   (paper: 50 W)
//	baseline 2 cores: 15 + 60 + 5        = 80 W   (paper: 80 W)
//	SmartNIC system:  15 + 30 + 25       = 70 W   (paper: 70 W)
//	switch system:    90 + 15 + 90 + 5   = 200 W  (paper: 200 W)

// Calibrated device parameters.
var (
	// ScenarioCore is the dataplane core model used by the examples.
	ScenarioCore = hw.CPUConfig{
		FreqHz:         3e9,
		IdleWatts:      10,
		ActiveWatts:    30,
		OverheadCycles: 600,
		QueueDepth:     512,
	}
	// ScenarioChassisWatts and ScenarioNICWatts complete the host BOM.
	ScenarioChassisWatts = 15.0
	ScenarioNICWatts     = 5.0
	// ScenarioSmartNIC is the §4.2 offload NIC: its fast-path capacity
	// (4.2 Mpps ≈ 12 Gb/s of IMIX) plus host slow-path work lands the
	// accelerated system at roughly twice the baseline's throughput.
	ScenarioSmartNIC = hw.SmartNICConfig{
		CapacityPps:           4.2e6,
		IdleWatts:             12,
		ActiveWatts:           25,
		FlowTableSize:         65536,
		OffloadLatencySeconds: 2e-6,
	}
	// ScenarioSwitch is the §4.2.1 preprocessor (a slice of a chassis).
	ScenarioSwitch = hw.SwitchConfig{
		PortRateBps:         100e9,
		Watts:               90,
		StageLatencySeconds: 100e-9,
		Stages:              4,
		TableCapacity:       4096,
		RackUnits:           1,
	}
)

// FirewallRules builds the canonical example rule set:
//
//	rule 0:            drop attack traffic (10.66.0.0/16) — cheap for
//	                   the linear matcher, offloadable to the switch;
//	filler rules:      nFiller rarely-matching drop rules, padding the
//	                   linear scan to a realistic depth;
//	accept rules:      HTTPS (443/TCP) and DNS (53/UDP) into the served
//	                   prefix, plus a band of UDP service ports.
//
// Traffic from workload.NewGenerator matches rule 0 with the spec's
// AttackFraction and otherwise one of the accept rules.
func FirewallRules(nFiller int) []nf.Rule {
	rules := []nf.Rule{{
		ID:     0,
		Src:    nf.Prefix{Addr: workload.AttackPrefix, Bits: 16},
		Action: nf.Drop,
	}}
	for i := 0; i < nFiller; i++ {
		rules = append(rules, nf.Rule{
			ID:     1 + i,
			Src:    nf.Prefix{Addr: packet.Addr4{172, 20, byte(i >> 8), byte(i)}, Bits: 30},
			Action: nf.Drop,
		})
	}
	base := 1 + nFiller
	rules = append(rules,
		nf.Rule{
			ID:       base,
			Dst:      nf.Prefix{Addr: packet.Addr4{192, 168, 1, 0}, Bits: 24},
			DstPorts: nf.PortRange{Lo: 443, Hi: 443}, Proto: packet.ProtoTCP,
			Action: nf.Accept,
		},
		nf.Rule{
			ID:       base + 1,
			Dst:      nf.Prefix{Addr: packet.Addr4{192, 168, 1, 0}, Bits: 24},
			DstPorts: nf.PortRange{Lo: 53, Hi: 53}, Proto: packet.ProtoUDP,
			Action: nf.Accept,
		},
		nf.Rule{
			ID:       base + 2,
			Dst:      nf.Prefix{Addr: packet.Addr4{192, 168, 1, 0}, Bits: 24},
			DstPorts: nf.PortRange{Lo: 2000, Hi: 2099}, Proto: packet.ProtoUDP,
			Action: nf.Accept,
		},
	)
	return rules
}

// DefaultFillerRules is the filler depth used by the examples,
// calibrated so one core sustains ≈10 Gb/s of IMIX (the paper's
// baseline figure).
const DefaultFillerRules = 50

// canonicalMatcher is FirewallRules(DefaultFillerRules) compiled once
// per process. Match only reads the index, so every core of every
// deployment shares it; per-rule hit counts stay in each Firewall.
var canonicalMatcher = sync.OnceValue(func() *nf.LinearMatcher {
	return nf.NewLinearMatcher(FirewallRules(DefaultFillerRules))
})

// firewallFactory returns a per-core firewall constructor over one
// compiled matcher, shared by the cores.
func firewallFactory(m nf.Matcher) func(int) (nf.Func, error) {
	return func(core int) (nf.Func, error) {
		return nf.NewFirewall(fmt.Sprintf("fw-core%d", core), m), nil
	}
}

// BaselineFirewall is the §4.2 baseline: a software firewall on a
// regular NIC with the given number of cores.
func BaselineFirewall(cores int) (*Deployment, error) {
	return New(Config{
		Name:         fmt.Sprintf("fw-host-%dcore", cores),
		Cores:        cores,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		NICWatts:     ScenarioNICWatts,
		NewNF:        firewallFactory(canonicalMatcher()),
	})
}

// SmartNICFirewall is the §4.2 proposed system: the same firewall with
// vetted flows offloaded to a SmartNIC fast path.
func SmartNICFirewall() (*Deployment, error) {
	snic := ScenarioSmartNIC
	return New(Config{
		Name:         "fw-smartnic",
		Cores:        1,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		SmartNIC:     &snic,
		NewNF:        firewallFactory(canonicalMatcher()),
	})
}

// SwitchFirewall is the §4.2.1 proposed system: a programmable switch
// pre-drops attack traffic in-network; the host firewall (cores host
// dataplane cores) handles what survives.
func SwitchFirewall(cores int) (*Deployment, error) {
	sw := ScenarioSwitch
	return New(Config{
		Name:         fmt.Sprintf("fw-switch-%dcore", cores),
		Cores:        cores,
		CoreCfg:      ScenarioCore,
		ChassisWatts: ScenarioChassisWatts,
		NICWatts:     ScenarioNICWatts,
		Switch:       &sw,
		SwitchRules:  FirewallRules(0)[:1], // the attack-prefix drop rule
		NewNF:        firewallFactory(canonicalMatcher()),
	})
}

// FPGAFirewall runs the whole firewall in an FPGA pipeline — the extra
// accelerator point used by the latency examples and frontier sweeps.
func FPGAFirewall(cfg hw.FPGAConfig) (*Deployment, error) {
	return New(Config{
		Name:         "fw-fpga",
		Cores:        0,
		ChassisWatts: ScenarioChassisWatts,
		NICWatts:     ScenarioNICWatts,
		FPGA:         &cfg,
		NewNF:        firewallFactory(canonicalMatcher()),
	})
}

// E6Workload is the §4.2 traffic mix: mostly benign IMIX flows with a
// 20% blocklisted component.
func E6Workload(seed uint64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Spec{
		Flows:          1024,
		ZipfSkew:       1.1,
		AttackFraction: 0.20,
		Seed:           seed,
	})
}

// FaultRegime names one operating regime of the fault sweep: a fault
// spec (empty for the healthy regime) in the textual grammar, so the
// same regime can be reproduced with `fairsim -faults`.
type FaultRegime struct {
	// Name labels the regime in reports ("healthy", "smartnic-outage").
	Name string
	// Spec is the fault specification, or "" for the healthy regime.
	Spec string
}

// FaultSweepRegimes is the canonical degraded-regime catalogue for a
// run of the given duration: the healthy reference plus one regime per
// fault model, with windows positioned as fractions of the run so the
// sweep scales with trial fidelity. Device targets absent from a
// deployment no-op, so every regime applies to every compared system —
// the point of the sweep is that both systems experience the *same*
// environment. Times are rendered as plain seconds (the spec grammar
// accepts both).
func FaultSweepRegimes(durationSeconds float64) []FaultRegime {
	d := durationSeconds
	return []FaultRegime{
		{Name: "healthy", Spec: ""},
		{Name: "smartnic-outage",
			Spec: fmt.Sprintf("outage:dev=smartnic,at=%g,for=%g", 0.25*d, 0.25*d)},
		{Name: "core-brownout",
			Spec: fmt.Sprintf("brownout:dev=cores,at=%g,for=%g,factor=0.5", 0.25*d, 0.5*d)},
		{Name: "link-loss", Spec: "linkloss:prob=0.02"},
		{Name: "burst-overload",
			Spec: fmt.Sprintf("burst:factor=3,at=%g,for=%g", 0.25*d, 0.25*d)},
	}
}

// E7Workload is the §4.2.1 mix: 75% of traffic is in-network-droppable
// attack/scan traffic, which is what makes switch preprocessing pay.
// Flow popularity is uniform so receive-side scaling balances the host
// cores — the example's premise that all host cores are usable.
func E7Workload(seed uint64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Spec{
		Flows:          4096,
		AttackFraction: 0.75,
		Seed:           seed,
	})
}
