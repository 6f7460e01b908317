package testbed

import (
	"fmt"

	"fairbench/internal/fault"
	"fairbench/internal/measure"
	"fairbench/internal/obs"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Fault-injected runs: the deployment under a fault.Spec. The injector
// schedules fault windows as first-class simulation events; device
// faults actuate the hardware models through the plant adapter below,
// link faults and burst overload act on the ingress path, and an
// availability meter buckets offered traffic so the run reports
// degraded-regime figures of merit alongside the usual measurement.

// availWindows is how many availability buckets a faulted run's horizon
// is divided into. Fault windows in the scenario catalogue span ~10% of
// a run, so 40 buckets resolve onset, depth and recovery without
// drowning short runs in empty windows.
const availWindows = 40

// FaultReport is the fault-side outcome of a faulted run, alongside the
// usual Result.
type FaultReport struct {
	// Spec is the injected specification.
	Spec fault.Spec
	// Windows is the materialised fault schedule, in deterministic
	// order.
	Windows []fault.Window
	// Avail summarises per-window availability, degradation depth and
	// recovery time.
	Avail measure.AvailSummary
	// LinkDropped and LinkCorrupted count ingress link-fault casualties.
	LinkDropped, LinkCorrupted uint64
}

// plant adapts the deployment's device models to the injector's
// actuation interface. Targets absent from this deployment are no-ops:
// the fault spec describes the environment, and every compared system
// experiences the same environment regardless of which devices it has.
type plant struct{ d *Deployment }

func (p plant) SetDown(t fault.Target, down bool) {
	switch t {
	case fault.TargetCores:
		for _, c := range p.d.cores {
			c.SetDown(down)
		}
	case fault.TargetSmartNIC:
		if p.d.smartnic != nil {
			p.d.smartnic.SetDown(down)
			if down {
				// Firmware crash loses offload state: flows must be
				// re-vetted by the host and re-installed on recovery.
				p.d.smartnic.ResetTable()
			}
		}
	case fault.TargetSwitch:
		if p.d.sw != nil {
			p.d.sw.SetDown(down)
		}
	case fault.TargetFPGA:
		if p.d.fpga != nil {
			p.d.fpga.SetDown(down)
		}
	}
}

func (p plant) SetDerate(t fault.Target, factor float64) {
	switch t {
	case fault.TargetCores:
		for _, c := range p.d.cores {
			c.SetDerate(factor)
		}
	case fault.TargetSmartNIC:
		if p.d.smartnic != nil {
			p.d.smartnic.SetDerate(factor)
		}
	case fault.TargetSwitch:
		if p.d.sw != nil {
			p.d.sw.SetDerate(factor)
		}
	case fault.TargetFPGA:
		if p.d.fpga != nil {
			p.d.fpga.SetDerate(factor)
		}
	}
}

// faultSpanDevice labels the fault span's Device field: the targeted
// device class, or "ingress" for link/burst faults.
func faultSpanDevice(w fault.Window) string {
	if w.Target == fault.TargetNone {
		return "ingress"
	}
	return w.Target.String()
}

// armFaults attaches the availability meter, wires fault spans into the
// trace, and arms the injector's event schedule.
func (d *Deployment) armFaults(inj *fault.Injector, horizon sim.Time) error {
	am, err := measure.NewAvailabilityMeter(horizon.Seconds() / availWindows)
	if err != nil {
		return err
	}
	d.avail = am
	inj.OnTransition(func(w fault.Window, start bool) {
		ev := obs.Event{
			T:      d.s.Now().Seconds(),
			Device: faultSpanDevice(w),
			Verdict: fmt.Sprintf("%s sev=%g clause=%d",
				w.Kind, w.Severity, w.Clause),
		}
		if start {
			ev.Kind = "fault"
			ev.Dur = w.Duration()
		} else {
			ev.Kind = "fault-end"
		}
		d.tr.Emit(ev)
	})
	return inj.Arm(d.s, horizon.Seconds(), plant{d})
}

// RunWithFaults is Run under a fault specification. Link-dropped
// packets count as loss (the offered load included them; the DUT never
// saw them); corrupted frames reach the DUT and die in header
// validation; device outages and brownouts play out in the deployment's
// failover paths. An empty spec measures the healthy regime with the
// availability meter attached, so healthy and degraded runs report
// comparable figures.
func (d *Deployment) RunWithFaults(gen *workload.Generator, arrival workload.Arrival, offeredPps, durationSeconds float64, spec fault.Spec) (Result, FaultReport, error) {
	if offeredPps <= 0 || durationSeconds <= 0 {
		return Result{}, FaultReport{}, fmt.Errorf("testbed: invalid run params pps=%v duration=%v", offeredPps, durationSeconds)
	}
	inj, err := fault.NewInjector(spec)
	if err != nil {
		return Result{}, FaultReport{}, err
	}
	rep := FaultReport{Spec: spec}
	needCopy := d.cfg.MutatesFrames || spec.HasKind(fault.LinkCorrupt)
	hooks := &runHooks{
		prep:       func(horizon sim.Time) error { return d.armFaults(inj, horizon) },
		rateFactor: inj.RateFactor,
	}
	res, err := d.runInjected(arrival, offeredPps, durationSeconds, gen.ArrivalRNG(),
		func() error {
			var pk workload.Pkt
			var err error
			if needCopy {
				pk, err = gen.NextCopy()
			} else {
				pk, err = gen.Next()
			}
			if err != nil {
				return err
			}
			d.tput.Offer(len(pk.Frame))
			if inj.DropArrival() {
				rep.LinkDropped++
				d.tput.Lose()
				// Offered but never resolvable: the arrival window
				// records it as lost service.
				d.avail.Offer(d.s.Now().Seconds())
				return nil
			}
			if idx, corrupt := inj.CorruptArrival(len(pk.Frame)); corrupt {
				rep.LinkCorrupted++
				pk.Frame[idx] ^= 0xff
			}
			d.dispatch(pk)
			return nil
		}, hooks)
	if err != nil {
		return Result{}, FaultReport{}, err
	}
	rep.Windows = inj.Windows()
	rep.Avail, err = d.avail.Summarize(measure.DefaultAvailabilityThreshold)
	if err != nil {
		return Result{}, FaultReport{}, fmt.Errorf("testbed: %s: availability: %w", d.cfg.Name, err)
	}
	return res, rep, nil
}

// RunTraceWithFaults replays a recorded trace under a fault
// specification. Burst clauses are ignored: replay pacing comes from
// the recorded timestamps, which a burst multiplier must not rewrite
// (it would change which packets exist, not just when faults strike).
func (d *Deployment) RunTraceWithFaults(tr *workload.TraceReader, stretch float64, spec fault.Spec) (Result, FaultReport, error) {
	inj, err := fault.NewInjector(spec)
	if err != nil {
		return Result{}, FaultReport{}, err
	}
	return d.runTrace(tr, stretch, inj, spec)
}
