package hw

import (
	"math"
	"testing"

	"fairbench/internal/sim"
)

// fifoDevice adapts one FIFO device model for the completion-order
// test: submit offers one packet now.
type fifoDevice struct {
	name   string
	fault  *FaultState
	submit func(done func(Sojourn)) bool
}

func fifoDevices(s *sim.Sim) []fifoDevice {
	core := NewCore("core", s, CPUConfig{FreqHz: 1e9, QueueDepth: 1024})
	nic := NewSmartNIC("smartnic", s, SmartNICConfig{CapacityPps: 1e6})
	nic.Install(flow(1))
	fpga := NewFPGA("fpga", s, FPGAConfig{CapacityPps: 1e6})
	return []fifoDevice{
		{"core", &core.FaultState, func(done func(Sojourn)) bool { return core.Submit(400, done) }},
		{"smartnic", &nic.FaultState, func(done func(Sojourn)) bool { return nic.Offload(flow(1), done) }},
		{"fpga", &fpga.FaultState, func(done func(Sojourn)) bool { return fpga.Submit(done) }},
	}
}

// TestFIFOCompletionOrder drives each device through a backlog that
// wraps and grows its pending ring, a mid-queue derate and an outage,
// and checks that completions arrive in submission order, each at its
// arrival time plus its queueing and service time.
func TestFIFOCompletionOrder(t *testing.T) {
	for i := range fifoDevices(sim.New()) {
		s := sim.New()
		dev := fifoDevices(s)[i]
		t.Run(dev.name, func(t *testing.T) {
			var accepted, done []int
			arrived := map[int]sim.Time{}
			burst := func(n int) {
				for k := 0; k < n; k++ {
					id := len(arrived)
					arrived[id] = s.Now()
					ok := dev.submit(func(so Sojourn) {
						done = append(done, id)
						want := float64(arrived[id]) + so.WaitSeconds + so.ServiceSeconds
						if math.Abs(float64(s.Now())-want) > 1e-12 {
							t.Errorf("packet %d completed at %v, want %v", id, s.Now(), want)
						}
					})
					if ok {
						accepted = append(accepted, id)
					}
				}
			}
			steps := []struct {
				at sim.Time
				fn func()
			}{
				{0, func() { burst(10) }},
				// Some completions have retired, so the ring head has
				// moved when this burst wraps and grows it.
				{3e-6, func() { burst(30) }},
				{4e-6, func() { dev.fault.SetDerate(0.5) }},
				{5e-6, func() { burst(5) }},
				{6e-6, func() {
					dev.fault.SetDown(true)
					burst(5)
					dev.fault.SetDown(false)
					dev.fault.SetDerate(1)
				}},
				{7e-6, func() { burst(5) }},
			}
			for _, st := range steps {
				if err := s.At(st.at, st.fn); err != nil {
					t.Fatal(err)
				}
			}
			s.RunAll()
			if len(accepted) < 40 {
				t.Fatalf("only %d of %d packets accepted", len(accepted), len(arrived))
			}
			if len(done) != len(accepted) {
				t.Fatalf("%d completions for %d accepted packets", len(done), len(accepted))
			}
			for k := range accepted {
				if done[k] != accepted[k] {
					t.Fatalf("completion %d is packet %d, want %d (order %v)", k, done[k], accepted[k], done)
				}
			}
		})
	}
}
