package hw

import (
	"fmt"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/sim"
)

// CPUConfig parameterises a core model. The defaults approximate a
// server-class x86 core dedicated to a run-to-completion dataplane.
type CPUConfig struct {
	// FreqHz is the core clock (default 3 GHz).
	FreqHz float64
	// IdleWatts is the core's share of package power when idle
	// (default 5 W).
	IdleWatts float64
	// ActiveWatts is the core's power at full load (default 15 W).
	ActiveWatts float64
	// OverheadCycles is the fixed per-packet cost of the I/O path
	// (descriptor handling, prefetching, memory stalls) added to the
	// network function's own cycles (default 600).
	OverheadCycles uint64
	// QueueDepth is the ingress descriptor ring size; arrivals beyond
	// it are dropped (default 512).
	QueueDepth int
	// FixedLatencySeconds is the host I/O latency added to every
	// packet's sojourn time — PCIe transfer, descriptor batching, cache
	// misses on the receive path (default 4 µs; set negative for zero).
	// It affects reported latency, not occupancy, which is why software
	// hosts cannot match in-pipeline accelerator latency even when
	// idle (§4.3's premise).
	FixedLatencySeconds float64
}

func (c CPUConfig) withDefaults() CPUConfig {
	if c.FreqHz == 0 {
		c.FreqHz = 3e9
	}
	if c.IdleWatts == 0 {
		c.IdleWatts = 5
	}
	if c.ActiveWatts == 0 {
		c.ActiveWatts = 15
	}
	if c.OverheadCycles == 0 {
		c.OverheadCycles = 600
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 512
	}
	switch {
	case c.FixedLatencySeconds == 0:
		c.FixedLatencySeconds = 4e-6
	case c.FixedLatencySeconds < 0:
		c.FixedLatencySeconds = 0
	}
	return c
}

// Core is a FIFO queueing server over CPU cycles: each packet occupies
// the core for (overhead + nf cycles) / freq seconds, arrivals queue up
// to QueueDepth, and excess arrivals are dropped — the behaviour of a
// poll-mode dataplane core under overload.
type Core struct {
	FaultState

	name string
	cfg  CPUConfig
	s    *sim.Sim

	nextFree sim.Time
	queued   int
	busy     float64 // accumulated busy seconds
	pending  completions
	// Served and Dropped count packets.
	Served, Dropped uint64
}

// NewCore builds a core attached to simulator s.
func NewCore(name string, s *sim.Sim, cfg CPUConfig) *Core {
	c := &Core{name: name, cfg: cfg.withDefaults(), s: s}
	c.pending = newCompletions(s, c.complete)
	return c
}

// complete retires the oldest packet in service.
func (c *Core) complete() {
	p := c.pending.pop()
	c.queued--
	c.Served++
	p.run()
}

// Name implements Device.
func (c *Core) Name() string { return c.name }

// Config returns the effective configuration.
func (c *Core) Config() CPUConfig { return c.cfg }

// ServiceSeconds returns the service time for a packet costing cycles.
func (c *Core) ServiceSeconds(cycles uint64) float64 {
	return float64(cycles+c.cfg.OverheadCycles) / c.cfg.FreqHz
}

// CapacityPps returns the core's packet rate at a given per-packet
// cycle cost — the analytic capacity the simulation converges to.
func (c *Core) CapacityPps(cycles uint64) float64 {
	return c.cfg.FreqHz / float64(cycles+c.cfg.OverheadCycles)
}

// Submit offers a packet costing cycles to the core at the current
// simulated time. If the core is down or the queue is full the packet
// is dropped and false is returned. Otherwise done (which may be nil)
// is invoked when processing completes, with the packet's sojourn-time
// breakdown. A derated (throttled) core stretches the service time by
// the derating factor, so throttling shows up as longer busy time and
// higher energy for the same work — the thermal-throttle behaviour.
func (c *Core) Submit(cycles uint64, done func(Sojourn)) bool {
	now := c.s.Now()
	if c.Down() || c.queued >= c.cfg.QueueDepth {
		c.Dropped++
		return false
	}
	start := c.nextFree
	if start < now {
		start = now
	}
	service := c.ServiceSeconds(cycles) * c.slowdown()
	finish := start + sim.Time(service)
	c.nextFree = finish
	c.queued++
	c.busy += service
	sojourn := Sojourn{
		WaitSeconds:    float64(start - now),
		ServiceSeconds: service,
		FixedSeconds:   c.cfg.FixedLatencySeconds,
	}
	if err := c.pending.schedule(finish, sojourn, done); err != nil {
		// Scheduling can only fail for a past/invalid time, which the
		// max() above prevents; treat as a bug.
		panic(fmt.Sprintf("hw: core %s: %v", c.name, err))
	}
	return true
}

// QueueLen returns the number of packets queued or in service — the
// instantaneous queue-depth probe the observability sampler reads.
func (c *Core) QueueLen() int { return c.queued }

// BusySeconds returns cumulative busy time, from which the sampler
// derives windowed utilization and instantaneous power.
func (c *Core) BusySeconds() float64 { return c.busy }

// Utilization returns busy-time fraction over [0, end).
func (c *Core) Utilization(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	u := c.busy / end.Seconds()
	if u > 1 {
		u = 1
	}
	return u
}

// EnergyJoules implements Device: idle power for the full interval plus
// the active increment for busy time.
func (c *Core) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	busy := c.busy
	if busy > end.Seconds() {
		busy = end.Seconds()
	}
	return c.cfg.IdleWatts*end.Seconds() + (c.cfg.ActiveWatts-c.cfg.IdleWatts)*busy
}

// MaxPowerWatts implements Device.
func (c *Core) MaxPowerWatts() float64 { return c.cfg.ActiveWatts }

// CostVector implements Device: one core plus its peak power.
func (c *Core) CostVector() cost.Vector {
	return cost.Vector{
		metric.MetricPower: metric.Q(c.cfg.ActiveWatts, metric.Watt),
		metric.MetricCores: metric.Q(1, metric.Core),
	}
}

// Chassis models the host's fixed overhead: PSU losses, fans, DRAM,
// uncore. It does no packet work but contributes power and rack space.
type Chassis struct {
	name      string
	Watts     float64
	RackUnits float64
}

// NewChassis builds a chassis with the given constant power draw.
func NewChassis(name string, watts, rackUnits float64) *Chassis {
	return &Chassis{name: name, Watts: watts, RackUnits: rackUnits}
}

// Name implements Device.
func (ch *Chassis) Name() string { return ch.name }

// EnergyJoules implements Device (constant draw).
func (ch *Chassis) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return ch.Watts * end.Seconds()
}

// MaxPowerWatts implements Device.
func (ch *Chassis) MaxPowerWatts() float64 { return ch.Watts }

// CostVector implements Device.
func (ch *Chassis) CostVector() cost.Vector {
	return cost.Vector{
		metric.MetricPower:     metric.Q(ch.Watts, metric.Watt),
		metric.MetricRackSpace: metric.Q(ch.RackUnits, metric.RackUnit),
	}
}
