// Package testbed assembles simulated heterogeneous deployments — hosts
// with CPU cores, optionally fronted by a SmartNIC, a programmable
// switch, or an FPGA — runs traffic through their network functions,
// and reports measured performance (throughput, latency, loss,
// fairness) together with composed cost (power, end-to-end per
// Principle 3).
//
// A Deployment is the simulated stand-in for one of the paper's example
// systems: "software firewall on N cores", "firewall with SmartNIC
// offload", "firewall behind a programmable switch". Its Run method
// produces the (performance, cost) points the core methodology
// compares.
package testbed

import (
	"errors"
	"fmt"
	"time"

	"fairbench/internal/fault"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/perf"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Config describes a deployment.
type Config struct {
	// Name labels the deployment in reports.
	Name string
	// Cores is the number of host dataplane cores (default 1).
	Cores int
	// CoreCfg configures each core.
	CoreCfg hw.CPUConfig
	// ChassisWatts is the host's fixed power overhead (default 15 W).
	ChassisWatts float64
	// NICWatts is the regular NIC's power (default 5 W). Ignored when
	// a SmartNIC is configured (the SmartNIC replaces it).
	NICWatts float64

	// SmartNIC, when non-nil, adds a flow-offload SmartNIC.
	SmartNIC *hw.SmartNICConfig
	// Switch, when non-nil, adds a programmable-switch preprocessor
	// running SwitchRules.
	Switch      *hw.SwitchConfig
	SwitchRules []nf.Rule
	// FPGA, when non-nil, runs the whole network function in an FPGA
	// pipeline. Packets the pipeline cannot take (ingress overflow, or
	// an injected outage) spill to the host cores when Cores > 0;
	// with Cores == 0 they are counted as loss in the measured window.
	FPGA *hw.FPGAConfig

	// NewNF builds a network-function instance for core i. Each core
	// gets its own instance (shared-nothing, as real dataplanes do).
	// Required unless FPGA is set, in which case a single functional
	// instance provides verdicts.
	NewNF func(core int) (nf.Func, error)

	// AblateStages names pipeline stages to disable for this
	// deployment — the saturation-delta profiler's stage toggles. An
	// ablated device stays in the bill of materials (its power is still
	// provisioned and drawn); only its dataplane function is switched
	// off, so a delta against the full pipeline isolates the *function's*
	// contribution. Recognized names: StageSmartNICFastPath (all traffic
	// takes the host slow path) and StageSwitchPredrop (the switch stops
	// preprocessing). NF-level operators are ablated by the scenario
	// constructors instead (see FirewallProfileTarget). Naming a stage
	// the configuration does not include is an error wrapping
	// ErrUnknownStage.
	AblateStages []string
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 && c.FPGA == nil {
		c.Cores = 1
	}
	if c.ChassisWatts == 0 {
		c.ChassisWatts = 15
	}
	if c.NICWatts == 0 {
		c.NICWatts = 5
	}
	return c
}

// Stage toggle names understood by Config.AblateStages and the
// firewall profile targets. The pipeline toggles disable a device's
// dataplane function while keeping the device provisioned; the NF-level
// toggles are interpreted by the scenario constructors, which rebuild
// the rule set.
const (
	// StageSmartNICFastPath disables the SmartNIC flow-offload fast
	// path: no lookups, no installs, every packet takes the host slow
	// path.
	StageSmartNICFastPath = "smartnic-fastpath"
	// StageSwitchPredrop disables the programmable switch's
	// preprocessing stage (as if the switch carried no rules).
	StageSwitchPredrop = "switch-predrop"
	// StageAttackRule removes the firewall's rule-0 early drop of
	// blocklisted traffic (NF-level; see FirewallProfileTarget).
	StageAttackRule = "fw-attack-rule"
	// StageFillerRules removes the firewall's filler rules, collapsing
	// the linear scan to its minimum depth (NF-level).
	StageFillerRules = "fw-filler-rules"
)

// ErrUnknownStage is the typed error for an ablation toggle the target
// pipeline does not have.
var ErrUnknownStage = errors.New("testbed: unknown ablatable stage")

// Deployment is an assembled system ready to run traffic.
type Deployment struct {
	cfg Config
	s   *sim.Sim

	// offSmartNIC and offSwitch record pipeline-stage ablations
	// (Config.AblateStages).
	offSmartNIC bool
	offSwitch   bool

	chassis  *hw.Chassis
	nic      *hw.NIC
	cores    []*hw.Core
	smartnic *hw.SmartNIC
	sw       *hw.Switch
	fpga     *hw.FPGA

	nfs     []nf.Func
	parsers []*packet.Parser

	// tr is the optional observability tracer; nil (the default) keeps
	// the hot path free of tracing work.
	tr          *obs.Tracer
	sampleEvery float64

	// inj is the optional fault injector faulted runs arm; nil (the
	// default) keeps the ingress path fault-free. avail is the
	// per-window availability meter armed with it, and the link counts
	// tally ingress link-fault casualties.
	inj                                        *fault.Injector
	avail                                      *measure.AvailabilityMeter
	linkDropped, linkCorrupted, linkDuplicated uint64

	// state is the optional per-class state-pressure meter scenario
	// runs attach; nil (the default) keeps the hot path class-blind.
	state *measure.StateMeter

	// The run's meters, reset by beginRun.
	tput measure.ThroughputMeter
	lat  *measure.LatencyMeter
	fair *measure.FairnessMeter

	// recs holds every packet record of the run and free heads the list
	// of recycled ones (-1 when empty), linked by index so recycling
	// stores no pointer; inFlight counts records handed out and not yet
	// finished.
	recs     []*pktInFlight
	free     int32
	inFlight uint64
	// latRejects counts latency samples the histogram refused
	// (non-finite or out of range): each is a packet missing from the
	// reported percentiles, so a healthy run has none.
	latRejects uint64
}

// New assembles a deployment.
func New(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if cfg.NewNF == nil {
		return nil, fmt.Errorf("testbed: %s: NewNF is required", cfg.Name)
	}
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("testbed: %s: negative core count", cfg.Name)
	}
	if cfg.FPGA != nil && (cfg.SmartNIC != nil || cfg.Switch != nil) {
		return nil, fmt.Errorf("testbed: %s: FPGA deployments cannot also have SmartNIC/switch", cfg.Name)
	}
	d := &Deployment{cfg: cfg, s: sim.New(), free: -1}
	d.chassis = hw.NewChassis(cfg.Name+"/chassis", cfg.ChassisWatts)

	nInstances := cfg.Cores
	if cfg.FPGA != nil && nInstances == 0 {
		nInstances = 1 // functional instance for verdicts
	}
	for i := 0; i < nInstances; i++ {
		f, err := cfg.NewNF(i)
		if err != nil {
			return nil, fmt.Errorf("testbed: %s: building NF for core %d: %w", cfg.Name, i, err)
		}
		d.nfs = append(d.nfs, f)
		d.parsers = append(d.parsers, packet.NewParser())
	}
	for i := 0; i < cfg.Cores; i++ {
		d.cores = append(d.cores, hw.NewCore(fmt.Sprintf("%s/core%d", cfg.Name, i), d.s, cfg.CoreCfg))
	}
	switch {
	case cfg.SmartNIC != nil:
		d.smartnic = hw.NewSmartNIC(cfg.Name+"/smartnic", d.s, *cfg.SmartNIC)
	default:
		d.nic = hw.NewNIC(cfg.Name+"/nic", cfg.NICWatts)
	}
	if cfg.Switch != nil {
		d.sw = hw.NewSwitch(cfg.Name+"/switch", *cfg.Switch)
		d.sw.InstallRules(cfg.SwitchRules)
	}
	if cfg.FPGA != nil {
		d.fpga = hw.NewFPGA(cfg.Name+"/fpga", d.s, *cfg.FPGA)
	}
	for _, st := range cfg.AblateStages {
		switch st {
		case StageSmartNICFastPath:
			if d.smartnic == nil {
				return nil, fmt.Errorf("%w: %s: %q needs a SmartNIC", ErrUnknownStage, cfg.Name, st)
			}
			d.offSmartNIC = true
		case StageSwitchPredrop:
			if d.sw == nil {
				return nil, fmt.Errorf("%w: %s: %q needs a switch", ErrUnknownStage, cfg.Name, st)
			}
			d.offSwitch = true
		default:
			return nil, fmt.Errorf("%w: %s: %q", ErrUnknownStage, cfg.Name, st)
		}
	}
	return d, nil
}

// Devices lists every powered component, in a stable order.
func (d *Deployment) Devices() []hw.Device {
	out := []hw.Device{d.chassis}
	if d.nic != nil {
		out = append(out, d.nic)
	}
	if d.smartnic != nil {
		out = append(out, d.smartnic)
	}
	for _, c := range d.cores {
		out = append(out, c)
	}
	if d.sw != nil {
		out = append(out, d.sw)
	}
	if d.fpga != nil {
		out = append(out, d.fpga)
	}
	return out
}

// ProvisionedPowerWatts composes peak power across all devices.
func (d *Deployment) ProvisionedPowerWatts() (float64, error) {
	return hw.TotalPowerWatts(d.Devices()...)
}

// SmartNIC exposes the SmartNIC model (nil if absent) for tests.
func (d *Deployment) SmartNIC() *hw.SmartNIC { return d.smartnic }

// Observe attaches an observability tracer to the deployment. Call it
// before Run/RunTrace. The trace records per-packet lifecycle spans
// with a per-stage latency breakdown and kernel progress; when
// sampleEvery > 0, a deterministic periodic sampler additionally
// records per-device utilization, queue depth and instantaneous power
// every sampleEvery seconds of virtual time. A nil tracer (the
// default) leaves the hot path untouched.
func (d *Deployment) Observe(tr *obs.Tracer, sampleEvery float64) {
	d.tr = tr
	d.sampleEvery = sampleEvery
}

// armObs installs the kernel hook and sampler for a traced run.
func (d *Deployment) armObs(horizon sim.Time) {
	if d.tr == nil {
		return
	}
	d.tr.Emit(obs.Event{T: d.s.Now().Seconds(), Kind: "run", Device: d.cfg.Name})
	d.s.SetTrace(obs.KernelHook(d.tr))
	if d.sampleEvery > 0 {
		// Scheduling the first tick can only fail for an invalid
		// period, which the Sampler reports; surface it as a trace
		// error rather than failing the measurement.
		sampler := obs.NewSampler(d.tr, d.sampleEvery, d.obsSources()...)
		_ = sampler.Arm(d.s, horizon.Seconds())
	}
}

// finishObs closes out a traced run.
func (d *Deployment) finishObs(end sim.Time) {
	if d.tr == nil {
		return
	}
	d.tr.Emit(obs.Event{T: end.Seconds(), Kind: "run-end", Events: d.s.Processed()})
}

// obsSources builds the sampler probes in the same stable order as
// Devices().
func (d *Deployment) obsSources() []obs.Source {
	out := []obs.Source{{
		Name: d.chassis.Name(), IdleWatts: d.chassis.Watts, ActiveWatts: d.chassis.Watts,
	}}
	if d.nic != nil {
		out = append(out, obs.Source{Name: d.nic.Name(), IdleWatts: d.nic.Watts, ActiveWatts: d.nic.Watts})
	}
	if d.smartnic != nil {
		cfg := d.smartnic.Config()
		out = append(out, obs.Source{
			Name: d.smartnic.Name(), Busy: d.smartnic.BusySeconds, Queue: d.smartnic.BacklogPackets,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	for _, c := range d.cores {
		cfg := c.Config()
		out = append(out, obs.Source{
			Name: c.Name(), Busy: c.BusySeconds, Queue: c.QueueLen,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	if d.sw != nil {
		w := d.sw.Config().Watts
		out = append(out, obs.Source{Name: d.sw.Name(), IdleWatts: w, ActiveWatts: w})
	}
	if d.fpga != nil {
		cfg := d.fpga.Config()
		out = append(out, obs.Source{
			Name: d.fpga.Name(), Busy: d.fpga.BusySeconds, Queue: d.fpga.BacklogPackets,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	return out
}

// startSpan opens a packet lifecycle span (nil when untraced).
func (d *Deployment) startSpan() *obs.Span {
	return d.tr.StartSpan(d.s.Now().Seconds())
}

// spanSojourn attributes a device sojourn to the span's standard
// stages: queueing, service, and fixed I/O latency.
func spanSojourn(sp *obs.Span, so hw.Sojourn) {
	sp.Stage("queue", so.WaitSeconds)
	sp.Stage("service", so.ServiceSeconds)
	sp.Stage("io", so.FixedSeconds)
}

// verdictLabel renders an NF verdict for trace events.
func verdictLabel(forwarded bool) string {
	if forwarded {
		return "forward"
	}
	return "drop"
}

// Result is the measured outcome of a Run.
type Result struct {
	Name     string
	Duration time.Duration

	Offered, Processed, Forwarded perf.Throughput
	LossFraction                  float64

	LatencyMeanUs, LatencyP50Us, LatencyP99Us float64
	JFI                                       float64

	// AvgPowerWatts integrates each device's energy over the run.
	AvgPowerWatts float64
	// ProvisionedPowerWatts is the peak-power cost figure (the number
	// the paper's examples report).
	ProvisionedPowerWatts float64
	// PerDeviceAvgWatts itemises average power.
	PerDeviceAvgWatts map[string]float64
}

// Run offers traffic at offeredPps for the given simulated duration and
// returns the measurement. Each call uses a fresh simulation clock; a
// Deployment should be Run once (build a new one per experiment point).
func (d *Deployment) Run(gen *workload.Generator, arrival workload.Arrival, offeredPps, durationSeconds float64) (Result, error) {
	if offeredPps <= 0 || durationSeconds <= 0 {
		return Result{}, fmt.Errorf("testbed: invalid run params pps=%v duration=%v", offeredPps, durationSeconds)
	}
	return d.runArrivals(arrival, offeredPps, durationSeconds, gen.ArrivalRNG(), nil,
		func() error {
			pk, err := gen.Next()
			if err != nil {
				return err
			}
			d.offer(pk)
			return nil
		})
}

// beginRun resets the run's meters and arms, in order, observability,
// the fault injector and the state sampler for a run measured over
// [0, horizon). The arming order fixes event sequence numbers and so
// equal-time tie-breaks; arrivals are scheduled after it returns.
func (d *Deployment) beginRun(horizon sim.Time) error {
	d.tput = measure.ThroughputMeter{}
	d.tput.Start(0)
	d.lat = measure.NewLatencyMeter()
	d.fair = measure.NewFairnessMeter()
	d.latRejects = 0
	d.linkDropped, d.linkCorrupted, d.linkDuplicated = 0, 0, 0
	d.armObs(horizon)
	if d.inj != nil {
		if err := d.armFaults(horizon); err != nil {
			return err
		}
	}
	if d.state != nil {
		return d.armStateSampler(horizon)
	}
	return nil
}

// runArrivals drives the arrival process, calling next per arrival to
// offer one packet, then drains and collects the measurement. The
// offered rate is offeredPps scaled by curve (nil for a flat rate) and
// by the armed injector's burst factor.
func (d *Deployment) runArrivals(arrival workload.Arrival, offeredPps, durationSeconds float64, arrRng *sim.RNG, curve func() float64, next func() error) (Result, error) {
	horizon := sim.Time(durationSeconds)
	if err := d.beginRun(horizon); err != nil {
		return Result{}, err
	}
	rate := func() float64 {
		r := offeredPps
		if curve != nil {
			r *= curve()
		}
		if d.inj != nil {
			r *= d.inj.RateFactor()
		}
		return r
	}

	// One arrival callback serves the whole run: it fires at an arrival
	// time, offers a packet, and reschedules itself one gap later.
	var injErr error
	var arrive sim.Callback
	scheduleNext := func() {
		at := d.s.Now() + sim.Time(arrival.NextGap(arrRng, rate()))
		if at > horizon {
			return
		}
		if err := d.s.AtCallback(at, arrive); err != nil && injErr == nil {
			injErr = err
		}
	}
	arrive = d.s.Register(func() {
		if err := next(); err != nil && injErr == nil {
			injErr = err
			d.s.Halt()
			return
		}
		scheduleNext()
	})
	scheduleNext()

	// Run past the horizon so in-flight packets drain (bounded by the
	// largest plausible queueing delay).
	d.s.Run(horizon + 1)
	if injErr != nil {
		return Result{}, injErr
	}
	return d.collect(horizon)
}

// ConservationError reports a run whose packet accounting does not
// balance: every offered packet must end processed (forwarded or
// policy-dropped), lost, or still in flight at the drain cutoff.
type ConservationError struct {
	Deployment                         string
	Offered, Processed, Lost, InFlight uint64
}

func (e *ConservationError) Error() string {
	return fmt.Sprintf("testbed: %s: packet conservation violated: offered %d != processed %d + lost %d + in flight %d",
		e.Deployment, e.Offered, e.Processed, e.Lost, e.InFlight)
}

// collect checks packet conservation and assembles the Result of a run
// measured over [0, end) from the meters and device energy.
func (d *Deployment) collect(end sim.Time) (Result, error) {
	if end <= 0 {
		// Run/RunTrace validate durations, so this is defensive: a
		// zero-length window must not divide energy by zero below.
		return Result{}, fmt.Errorf("testbed: %s: empty measurement window", d.cfg.Name)
	}
	tput := &d.tput
	if tput.OfferedPackets != tput.ProcessedPackets+tput.LostPackets+d.inFlight {
		return Result{}, &ConservationError{Deployment: d.cfg.Name, Offered: tput.OfferedPackets,
			Processed: tput.ProcessedPackets, Lost: tput.LostPackets, InFlight: d.inFlight}
	}
	tput.Stop(end)
	d.finishObs(end)
	res := Result{
		Name:          d.cfg.Name,
		Duration:      end.Duration(),
		Offered:       tput.Offered(),
		Processed:     tput.Processed(),
		Forwarded:     tput.Forwarded(),
		LossFraction:  tput.LossFraction(),
		LatencyMeanUs: d.lat.Summary().Mean / 1e3,
		LatencyP50Us:  d.lat.P50Micros(),
		LatencyP99Us:  d.lat.P99Micros(),
		JFI:           d.fair.JFI(),
	}
	var energy float64
	res.PerDeviceAvgWatts = make(map[string]float64)
	for _, dev := range d.Devices() {
		e := dev.EnergyJoules(end)
		energy += e
		res.PerDeviceAvgWatts[dev.Name()] = e / end.Seconds()
	}
	res.AvgPowerWatts = energy / end.Seconds()
	var err error
	res.ProvisionedPowerWatts, err = d.ProvisionedPowerWatts()
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// outcome is a packet's terminal fate.
type outcome uint8

const (
	// forwarded and dropped are device completions: the packet was
	// processed and left the system, or was dropped by NF policy.
	forwarded outcome = iota
	dropped
	// predropped is an in-network drop by the switch pipeline.
	predropped
	// lost means no component could take the packet.
	lost
)

// pktInFlight is one offered packet between dispatch and its terminal
// outcome. Records are recycled through the deployment's free list and
// each binds its device completion callback (done) once, so the
// steady-state packet path allocates nothing.
type pktInFlight struct {
	d        *Deployment
	done     func(hw.Sojourn)
	id, next int32 // index in the deployment's recs; free-list link

	sp      *obs.Span
	flow    packet.FiveTuple
	class   string
	size    int
	arrived float64
	// extra is latency accrued before the device that finishes the
	// packet (the switch stage).
	extra float64
	// device, fwd and install describe the pending device completion:
	// who completes the packet, its verdict, and whether a forwarded
	// flow is then installed on the SmartNIC.
	device  string
	fwd     bool
	install bool
}

// acquire hands out a packet record for pk arriving now.
func (d *Deployment) acquire(pk workload.Pkt) *pktInFlight {
	var p *pktInFlight
	if d.free >= 0 {
		p = d.recs[d.free]
		d.free = p.next
	} else {
		//fairlint:allow hotalloc pool miss: records are recycled, so the pool grows once to the run's peak in-flight count
		d.recs = append(d.recs, &pktInFlight{d: d, id: int32(len(d.recs))})
		p = d.recs[len(d.recs)-1]
		p.done = p.complete
	}
	d.inFlight++
	// Set field by field, storing a pointer only when it changes (a
	// recycled record keeps d and done, finish leaves sp nil, and the
	// class is usually the last packet's): while the collector marks,
	// every pointer store runs a write barrier.
	if sp := d.startSpan(); sp != nil {
		p.sp = sp
	}
	if c := string(pk.Class); p.class != c {
		p.class = c
	}
	p.flow, p.size = pk.Flow, len(pk.Frame)
	p.arrived = d.s.Now().Seconds()
	p.extra, p.fwd, p.install = 0, false, false
	d.avail.Offer(p.arrived)
	return p
}

// setDevice records the device that completes the packet, storing the
// name only when it differs from the record's last one (see acquire).
func (p *pktInFlight) setDevice(name string) {
	if p.device != name {
		p.device = name
	}
}

// complete is a device's completion callback, bound once per record.
func (p *pktInFlight) complete(so hw.Sojourn) {
	out := dropped
	if p.fwd {
		out = forwarded
	}
	p.finish(out, p.device, so)
}

// finish records the packet's terminal outcome in every meter, the
// latency histogram and its trace span, then recycles the record. It is
// the one place a packet leaves the deployment. device names the
// component that decided the outcome; so is its sojourn breakdown for
// device completions.
func (p *pktInFlight) finish(out outcome, device string, so hw.Sojourn) {
	d := p.d
	if out == lost {
		d.tput.Lose()
		d.avail.Resolve(p.arrived, false)
		d.state.Lose(p.class)
		p.sp.End(device, "loss")
	} else {
		fwd := out == forwarded
		d.tput.Process(p.size, fwd)
		d.avail.Resolve(p.arrived, true)
		if fwd {
			d.state.Deliver(p.class, p.size)
			d.fair.Record(p.flow, p.size)
		} else {
			d.state.Drop(p.class)
		}
		if err := d.lat.RecordSeconds(so.Total() + p.extra); err != nil {
			d.latRejects++
		}
		if out != predropped {
			spanSojourn(p.sp, so)
		}
		p.sp.End(device, verdictLabel(fwd))
		if p.install {
			// Install the offload entry once the host has vetted the flow.
			d.smartnic.Install(p.flow)
		}
	}
	if p.sp != nil {
		p.sp = nil
	}
	p.next = d.free
	d.free = p.id
	d.inFlight--
}

// offer is the one ingress step: every arriving packet, generated or
// replayed, enters the deployment here, so it is the only place the
// offered load is metered and the only place frames are copied. Frames
// alias generator templates (or trace records), which network functions
// only read, and are copied only for link corruption. With a fault
// injector armed,
// the link drops, corrupts and duplicates packets, drawing its coins in
// that order.
//
//fairbench:hotpath alloc gate row testbed-smartnic-packet
func (d *Deployment) offer(pk workload.Pkt) {
	d.tput.Offer(len(pk.Frame))
	d.state.Offer(string(pk.Class), len(pk.Frame))
	if d.inj != nil {
		if d.inj.DropArrival() {
			d.linkDropped++
			d.tput.Lose()
			d.state.Lose(string(pk.Class))
			// Offered but never resolvable: the arrival window records
			// it as lost service.
			d.avail.Offer(d.s.Now().Seconds())
			return
		}
		if idx, corrupt := d.inj.CorruptArrival(len(pk.Frame)); corrupt {
			d.linkCorrupted++
			//fairlint:allow hotalloc only link-corrupted packets copy: the flip must not reach the shared template
			pk.Frame = append([]byte(nil), pk.Frame...)
			pk.Frame[idx] ^= 0xff
		}
		if d.inj.DupArrival() {
			// The link delivers the frame twice. Both deliveries share
			// this arrival's link draws, so the duplicate is offered with
			// the injector parked; it goes first.
			d.linkDuplicated++
			inj := d.inj
			d.inj = nil
			d.offer(pk)
			d.inj = inj
		}
	}
	d.dispatch(pk)
}

// dispatch pushes one offered packet through the deployment's path.
// When a tracer is attached, every packet gets a lifecycle span whose
// stage durations sum to the latency the meters record. Offload devices
// degrade gracefully: a downed switch fails open (the host firewall
// still holds the full rule set), and FPGA overflow or outage spills to
// the host cores when there are any — traffic is only lost when no
// component can take it.
//
//fairbench:hotpath alloc gate row testbed-smartnic-packet
func (d *Deployment) dispatch(pk workload.Pkt) {
	p := d.acquire(pk)

	// Stage 1: programmable switch preprocessing at line rate. A downed
	// switch is bypassed (fail-open), leaving all classification to the
	// host.
	if d.sw != nil && !d.offSwitch && !d.sw.Down() {
		verdict, swLat := d.sw.Process(pk.Flow)
		p.sp.Stage("switch", swLat)
		p.extra += swLat
		if verdict == nf.Drop {
			// Pre-dropped in-network: processed work, not forwarded.
			p.finish(predropped, d.sw.Name(), hw.Sojourn{})
			return
		}
	}

	// Stage 2: FPGA full offload; overflow and outage fail over to the
	// host slow path when cores exist.
	if d.fpga != nil {
		p.fwd = d.functionalVerdict(pk) != nf.Drop
		p.setDevice(d.fpga.Name())
		if d.fpga.Submit(p.done) {
			return
		}
		if len(d.cores) > 0 {
			d.hostPath(p, pk.Frame)
		} else {
			p.finish(lost, d.fpga.Name(), hw.Sojourn{})
		}
		return
	}

	// Stage 3: SmartNIC fast path for established flows. Saturation,
	// table misses and outages all punt to the host slow path.
	if d.smartnic != nil && !d.offSmartNIC {
		p.fwd = true
		p.setDevice(d.smartnic.Name())
		if d.smartnic.Offload(pk.Flow, p.done) {
			return
		}
	}

	// Stage 4: host slow path.
	d.hostPath(p, pk.Frame)
}

// hostPath runs the NF on the packet's RSS core.
func (d *Deployment) hostPath(p *pktInFlight, frame []byte) {
	if len(d.cores) == 0 {
		p.finish(lost, "host", hw.Sojourn{})
		return
	}
	coreID := hw.RSS(p.flow, len(d.cores))
	core := d.cores[coreID]
	parser := d.parsers[coreID]
	if err := parser.Parse(frame); err != nil {
		p.finish(lost, core.Name(), hw.Sojourn{})
		return
	}
	res, err := d.nfs[coreID].Process(parser, frame)
	if err != nil {
		p.finish(lost, core.Name(), hw.Sojourn{})
		return
	}
	p.fwd = res.Verdict != nf.Drop
	p.install = p.fwd && d.smartnic != nil && !d.offSmartNIC
	p.setDevice(core.Name())
	if !core.Submit(res.Cycles, p.done) {
		p.finish(lost, core.Name(), hw.Sojourn{})
	}
}

// functionalVerdict evaluates the NF logic for the FPGA path (the
// pipeline implements the same function in hardware; we reuse the Go
// implementation for the decision while the FPGA model provides
// timing).
func (d *Deployment) functionalVerdict(pk workload.Pkt) nf.Verdict {
	parser := d.parsers[0]
	if err := parser.Parse(pk.Frame); err != nil {
		return nf.Drop
	}
	res, err := d.nfs[0].Process(parser, pk.Frame)
	if err != nil {
		return nf.Drop
	}
	return res.Verdict
}
