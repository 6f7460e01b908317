package hw

import (
	"math"
	"testing"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func flow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr4{10, byte(i >> 16), byte(i >> 8), byte(i)}, Dst: packet.Addr4{10, 0, 0, 1},
		SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
	}
}

func TestCoreServiceAndCapacity(t *testing.T) {
	s := sim.New()
	c := NewCore("core0", s, CPUConfig{FreqHz: 3e9, OverheadCycles: 600})
	// 900 + 600 cycles at 3 GHz = 500 ns.
	if got := c.ServiceSeconds(900); math.Abs(got-500e-9) > 1e-15 {
		t.Errorf("ServiceSeconds = %v, want 500ns", got)
	}
}

func TestCoreFIFOQueueing(t *testing.T) {
	s := sim.New()
	c := NewCore("core0", s, CPUConfig{FreqHz: 1e9, OverheadCycles: 600, QueueDepth: 16, FixedLatencySeconds: -1})
	var sojourns []Sojourn
	// Two back-to-back packets of 400+600 cycles (1 µs) at t=0: the
	// second waits for the first.
	submit := func() {
		for i := 0; i < 2; i++ {
			if !c.Submit(400, func(so Sojourn) { sojourns = append(sojourns, so) }) {
				t.Error("submit rejected")
			}
		}
	}
	if err := s.At(0, submit); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if len(sojourns) != 2 {
		t.Fatalf("sojourns = %v", sojourns)
	}
	if math.Abs(sojourns[0].Total()-1e-6) > 1e-12 || math.Abs(sojourns[1].Total()-2e-6) > 1e-12 {
		t.Errorf("latencies = %v, want [1µs 2µs]", sojourns)
	}
	// The second packet's extra microsecond is queueing, not service.
	if math.Abs(sojourns[1].WaitSeconds-1e-6) > 1e-12 || math.Abs(sojourns[1].ServiceSeconds-1e-6) > 1e-12 {
		t.Errorf("second sojourn = %+v, want 1µs wait + 1µs service", sojourns[1])
	}
	if sojourns[0].WaitSeconds != 0 {
		t.Errorf("first packet should not wait: %+v", sojourns[0])
	}
	if c.Served != 2 {
		t.Errorf("Served = %d", c.Served)
	}
}

func TestCoreOverloadDrops(t *testing.T) {
	s := sim.New()
	c := NewCore("core0", s, CPUConfig{FreqHz: 1e9, OverheadCycles: 0, QueueDepth: 4})
	dropped := 0
	_ = s.At(0, func() {
		for i := 0; i < 10; i++ {
			if !c.Submit(1_000_000, nil) { // 1 ms each
				dropped++
			}
		}
	})
	s.RunAll()
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6 (queue depth 4)", dropped)
	}
	if c.Dropped != 6 || c.Served != 4 {
		t.Errorf("counters: served=%d dropped=%d", c.Served, c.Dropped)
	}
}

func TestCoreEnergyModel(t *testing.T) {
	s := sim.New()
	c := NewCore("core0", s, CPUConfig{FreqHz: 1e9, IdleWatts: 5, ActiveWatts: 15, OverheadCycles: 600})
	// Busy for 0.5 s of a 1 s window: E = 5*1 + 10*0.5 = 10 J.
	_ = s.At(0, func() { c.Submit(500_000_000-600, nil) })
	s.Run(1)
	if got := c.EnergyJoules(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("EnergyJoules = %v, want 10", got)
	}
	if got := c.BusySeconds(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("BusySeconds = %v, want 0.5", got)
	}
	if c.MaxPowerWatts() != 15 {
		t.Errorf("MaxPowerWatts = %v", c.MaxPowerWatts())
	}
}

func TestChassisConstantPower(t *testing.T) {
	ch := NewChassis("chassis", 30, 1)
	if got := ch.EnergyJoules(10); got != 300 {
		t.Errorf("EnergyJoules = %v", got)
	}
	v := ch.CostVector()
	if v[metric.MetricRackSpace].Value != 1 {
		t.Errorf("rack units = %v", v[metric.MetricRackSpace])
	}
}

func TestTotalPowerComposesEndToEnd(t *testing.T) {
	s := sim.New()
	devices := []Device{
		NewChassis("chassis", 15, 1),
		NewCore("core0", s, CPUConfig{ActiveWatts: 30}),
		NewNIC("nic", 5),
	}
	w, err := TotalPowerWatts(devices...)
	if err != nil {
		t.Fatal(err)
	}
	if w != 50 {
		t.Errorf("total power = %v, want 50 (the paper's baseline)", w)
	}
}

func TestCoresMetricNotEndToEndAcrossFPGA(t *testing.T) {
	// Principle 3 in action: a cores-cost comparison of a CPU-only
	// system with a CPU+FPGA system fails coverage.
	s := sim.New()
	cpuOnly := ComponentsOf(NewCore("core0", s, CPUConfig{}))
	hybrid := ComponentsOf(NewCore("core0", s, CPUConfig{}), NewFPGA("fpga", s, FPGAConfig{}))
	if _, err := cost.Compose(metric.MetricCores, cpuOnly); err != nil {
		t.Errorf("cores over CPU-only should compose: %v", err)
	}
	if _, err := cost.Compose(metric.MetricCores, hybrid); err == nil {
		t.Error("cores over CPU+FPGA must fail end-to-end coverage")
	}
	if _, err := cost.Compose(metric.MetricPower, hybrid); err != nil {
		t.Errorf("power must compose over any mix: %v", err)
	}
}

func TestRSSStableAndBounded(t *testing.T) {
	for i := 0; i < 100; i++ {
		ft := flow(i)
		c := RSS(ft, 8)
		if c < 0 || c >= 8 {
			t.Fatalf("RSS out of range: %d", c)
		}
		if RSS(ft, 8) != c {
			t.Fatal("RSS must be deterministic")
		}
		if RSS(ft.Reverse(), 8) != c {
			t.Fatal("RSS must be direction-symmetric")
		}
	}
	if RSS(flow(0), 0) != 0 {
		t.Error("RSS with no cores should degrade to 0")
	}
}

func TestSmartNICOffloadPath(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("snic", s, SmartNICConfig{CapacityPps: 1e6})
	ft := flow(1)

	// Unknown flow: punted to host.
	if sn.Offload(ft, nil) {
		t.Fatal("unknown flow must not be offloaded")
	}
	if !sn.Install(ft) {
		t.Fatal("install failed")
	}
	done := false
	_ = s.At(0, func() {
		if !sn.Offload(ft, func(so Sojourn) {
			done = true
			if so.Total() < 1e-6 {
				t.Errorf("fast-path latency = %v, want >= service+fixed", so.Total())
			}
		}) {
			t.Error("installed flow should offload")
		}
	})
	s.RunAll()
	if !done {
		t.Error("offload completion callback not invoked")
	}
	if sn.Offloaded != 1 || sn.ToHost != 1 {
		t.Errorf("counters: offloaded=%d tohost=%d", sn.Offloaded, sn.ToHost)
	}
}

func TestSmartNICTableCapacity(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("snic", s, SmartNICConfig{FlowTableSize: 2})
	if !sn.Install(flow(1)) || !sn.Install(flow(2)) {
		t.Fatal("first installs should succeed")
	}
	if sn.Install(flow(3)) {
		t.Error("table beyond capacity should reject")
	}
	if sn.FlowTableLen() != 2 {
		t.Errorf("table len = %d", sn.FlowTableLen())
	}
}

func TestSmartNICSaturationPunts(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("snic", s, SmartNICConfig{CapacityPps: 1000}) // 1 ms service
	ft := flow(1)
	sn.Install(ft)
	punted := 0
	_ = s.At(0, func() {
		for i := 0; i < 200; i++ {
			if !sn.Offload(ft, nil) {
				punted++
			}
		}
	})
	s.RunAll()
	if punted == 0 {
		t.Error("saturated fast path should punt to host")
	}
	if sn.Saturated == 0 {
		t.Error("Saturated counter should record punts")
	}
}

func TestSwitchPreFilter(t *testing.T) {
	sw := NewSwitch("tofino", SwitchConfig{Watts: 90, Stages: 4, StageLatencySeconds: 100e-9})
	installed := sw.InstallRules([]nf.Rule{
		{ID: 0, Src: nf.Prefix{Addr: packet.Addr4{10, 66, 0, 0}, Bits: 16}, Action: nf.Drop},
	})
	if installed != 1 {
		t.Fatalf("installed = %d", installed)
	}
	attack := packet.FiveTuple{Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{1, 1, 1, 1}, Proto: packet.ProtoUDP}
	v, lat := sw.Process(attack)
	if v != nf.Drop {
		t.Errorf("attack verdict = %v", v)
	}
	if math.Abs(lat-400e-9) > 1e-12 {
		t.Errorf("pipeline latency = %v, want 400ns", lat)
	}
	clean := flow(1)
	if v, _ := sw.Process(clean); v != nf.Accept {
		t.Errorf("clean verdict = %v", v)
	}
	if sw.PreDropped != 1 || sw.Passed != 1 {
		t.Errorf("counters: dropped=%d passed=%d", sw.PreDropped, sw.Passed)
	}
}

func TestSwitchTableCapacity(t *testing.T) {
	sw := NewSwitch("sw", SwitchConfig{TableCapacity: 10})
	rules := make([]nf.Rule, 100)
	if got := sw.InstallRules(rules); got != 10 {
		t.Errorf("installed = %d, want capacity cap 10", got)
	}
}

func TestSwitchConstantPower(t *testing.T) {
	sw := NewSwitch("sw", SwitchConfig{Watts: 100})
	if sw.EnergyJoules(2) != 200 || sw.MaxPowerWatts() != 100 {
		t.Error("switch power model should be constant")
	}
}

func TestFPGASubmitAndOverflow(t *testing.T) {
	s := sim.New()
	f := NewFPGA("fpga", s, FPGAConfig{CapacityPps: 1000, PipelineLatencySeconds: 1e-6})
	served := 0
	overflow := 0
	_ = s.At(0, func() {
		for i := 0; i < 300; i++ {
			if f.Submit(func(Sojourn) { served++ }) {
				continue
			}
			overflow++
		}
	})
	s.RunAll()
	if overflow == 0 {
		t.Error("pipeline should overflow beyond its ingress buffer")
	}
	if served == 0 || uint64(served) != f.Served {
		t.Errorf("served = %d, f.Served = %d", served, f.Served)
	}
}

func TestFPGACostVectorHasLUTs(t *testing.T) {
	s := sim.New()
	f := NewFPGA("fpga", s, FPGAConfig{})
	v := f.CostVector()
	if _, ok := v[metric.MetricLUTs]; !ok {
		t.Error("FPGA cost vector should report LUTs")
	}
	if _, ok := v[metric.MetricPower]; !ok {
		t.Error("FPGA cost vector should report power")
	}
}

func TestDeviceDefaults(t *testing.T) {
	s := sim.New()
	c := NewCore("c", s, CPUConfig{})
	if c.Config().FreqHz != 3e9 || c.Config().QueueDepth != 512 {
		t.Errorf("core defaults = %+v", c.Config())
	}
	sn := NewSmartNIC("s", s, SmartNICConfig{})
	if sn.Config().CapacityPps != 30e6 {
		t.Errorf("smartnic defaults = %+v", sn.Config())
	}
	sw := NewSwitch("w", SwitchConfig{})
	if sw.Config().PortRateBps != 100e9 {
		t.Errorf("switch defaults = %+v", sw.Config())
	}
	fp := NewFPGA("f", s, FPGAConfig{})
	if fp.Config().CapacityPps != 50e6 {
		t.Errorf("fpga defaults = %+v", fp.Config())
	}
}

func TestProbes(t *testing.T) {
	s := sim.New()
	c := NewCore("c", s, CPUConfig{FreqHz: 1e9, OverheadCycles: 0, QueueDepth: 16})
	_ = s.At(0, func() {
		for i := 0; i < 3; i++ {
			c.Submit(1_000_000, nil) // 1 ms each
		}
		if c.QueueLen() != 3 {
			t.Errorf("QueueLen = %d, want 3", c.QueueLen())
		}
	})
	s.Run(10)
	if c.QueueLen() != 0 {
		t.Errorf("QueueLen after drain = %d", c.QueueLen())
	}
	want := 3 * c.ServiceSeconds(1_000_000)
	if got := c.BusySeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("BusySeconds = %v, want %v", got, want)
	}

	sn := NewSmartNIC("sn", s, SmartNICConfig{CapacityPps: 1000})
	sn.Install(flow(1))
	if sn.BacklogPackets() != 0 {
		t.Errorf("idle backlog = %d", sn.BacklogPackets())
	}
	_ = s.At(s.Now(), func() {
		sn.Offload(flow(1), nil)
		sn.Offload(flow(1), nil)
		if got := sn.BacklogPackets(); got != 2 {
			t.Errorf("smartnic backlog = %d, want 2", got)
		}
	})
	s.RunAll()
	if sn.BusySeconds() <= 0 {
		t.Error("smartnic busy seconds should accumulate")
	}

	f := NewFPGA("f", s, FPGAConfig{CapacityPps: 1000})
	_ = s.At(s.Now(), func() {
		f.Submit(nil)
		if got := f.BacklogPackets(); got != 1 {
			t.Errorf("fpga backlog = %d, want 1", got)
		}
	})
	s.RunAll()
	if f.BusySeconds() <= 0 {
		t.Error("fpga busy seconds should accumulate")
	}
}

func TestSojournTotal(t *testing.T) {
	so := Sojourn{WaitSeconds: 1, ServiceSeconds: 2, FixedSeconds: 3}
	if so.Total() != 6 {
		t.Errorf("Total = %v", so.Total())
	}
}

func TestZeroEndEnergy(t *testing.T) {
	s := sim.New()
	for _, d := range []Device{
		NewCore("c", s, CPUConfig{}), NewChassis("ch", 30, 1),
		NewNIC("n", 5), NewSmartNIC("sn", s, SmartNICConfig{}),
		NewSwitch("sw", SwitchConfig{}), NewFPGA("f", s, FPGAConfig{}),
	} {
		if d.EnergyJoules(0) != 0 {
			t.Errorf("%s: energy at t=0 should be 0", d.Name())
		}
	}
}
