package hw

import (
	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// NIC is a conventional network interface: it delivers packets to host
// cores (RSS by flow hash) and contributes constant power. It performs
// no offload.
type NIC struct {
	name    string
	RateBps float64
	Watts   float64
	// Delivered counts packets handed to the host.
	Delivered uint64
}

// NewNIC builds a NIC with the given line rate and power draw.
func NewNIC(name string, rateBps, watts float64) *NIC {
	return &NIC{name: name, RateBps: rateBps, Watts: watts}
}

// Name implements Device.
func (n *NIC) Name() string { return n.name }

// EnergyJoules implements Device (constant draw — NIC power varies
// little with load).
func (n *NIC) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return n.Watts * end.Seconds()
}

// MaxPowerWatts implements Device.
func (n *NIC) MaxPowerWatts() float64 { return n.Watts }

// CostVector implements Device.
func (n *NIC) CostVector() cost.Vector {
	return cost.Vector{metric.MetricPower: metric.Q(n.Watts, metric.Watt)}
}

// RSS picks a core index for a flow by its symmetric hash, the
// receive-side-scaling dispatch real NICs implement.
func RSS(ft packet.FiveTuple, nCores int) int {
	if nCores <= 0 {
		return 0
	}
	return int(ft.FastHash() % uint64(nCores))
}

// SmartNICConfig parameterises a SmartNIC offload model.
type SmartNICConfig struct {
	// CapacityPps is the NIC dataplane's packet rate for offloaded
	// flows (default 30 Mpps).
	CapacityPps float64
	// IdleWatts and ActiveWatts bound the NIC SoC's power (defaults
	// 12 W and 25 W).
	IdleWatts, ActiveWatts float64
	// FlowTableSize caps the offload table; new flows beyond it stay
	// on the host (default 65536).
	FlowTableSize int
	// TableEvict selects what a full offload table does with new
	// installs: refuse them (EvictNone, the conventional hardware
	// behaviour — entries are sticky until an outage resets them) or
	// evict per policy so the table tracks the live flow set.
	TableEvict nf.EvictPolicy
	// EvictSeed drives eviction randomness (EvictRandom only).
	EvictSeed uint64
	// OffloadLatencySeconds is the fixed fast-path latency (default
	// 2 µs).
	OffloadLatencySeconds float64
}

func (c SmartNICConfig) withDefaults() SmartNICConfig {
	if c.CapacityPps == 0 {
		c.CapacityPps = 30e6
	}
	if c.IdleWatts == 0 {
		c.IdleWatts = 12
	}
	if c.ActiveWatts == 0 {
		c.ActiveWatts = 25
	}
	if c.FlowTableSize == 0 {
		c.FlowTableSize = 65536
	}
	if c.OffloadLatencySeconds == 0 {
		c.OffloadLatencySeconds = 2e-6
	}
	return c
}

// SmartNIC models flow-offload acceleration (the §4.2 example): the
// first packet of each flow goes to the host (slow path), which installs
// an offload entry; subsequent packets of known flows are handled
// entirely on the NIC at its dataplane rate. This is the
// AccelTCP/FlexTOE-style "established flows bypass the host" pattern.
type SmartNIC struct {
	FaultState

	name string
	cfg  SmartNICConfig
	s    *sim.Sim

	table    *nf.FlowTable
	nextFree sim.Time
	busy     float64
	pending  completions
	// Offloaded, ToHost and TableMisses count dispatch outcomes.
	Offloaded, ToHost uint64
	// Saturated counts fast-path packets that found the NIC dataplane
	// busy beyond its queue and were punted to the host.
	Saturated uint64
	// InstallRefused counts offload installs rejected by a full table
	// (EvictNone) — the overflow-punt regime's tell-tale: those flows
	// ride the host slow path for their whole lifetime.
	InstallRefused uint64
}

// NewSmartNIC builds a SmartNIC attached to simulator s.
func NewSmartNIC(name string, s *sim.Sim, cfg SmartNICConfig) *SmartNIC {
	cfg = cfg.withDefaults()
	sn := &SmartNIC{
		name:  name,
		cfg:   cfg,
		s:     s,
		table: nf.NewFlowTable(cfg.FlowTableSize, cfg.TableEvict, cfg.EvictSeed),
	}
	sn.pending = newCompletions(s, sn.complete)
	return sn
}

// complete retires the oldest fast-path packet.
func (sn *SmartNIC) complete() { sn.pending.pop().run() }

// Name implements Device.
func (sn *SmartNIC) Name() string { return sn.name }

// Config returns the effective configuration.
func (sn *SmartNIC) Config() SmartNICConfig { return sn.cfg }

// FlowTableLen returns the number of installed offload entries.
func (sn *SmartNIC) FlowTableLen() int { return sn.table.Len() }

// Evicted returns the number of offload entries evicted to admit new
// installs (always 0 under EvictNone).
func (sn *SmartNIC) Evicted() uint64 { return sn.table.Evictions }

// Install adds a flow to the offload table (called by the host after
// slow-path processing). It returns false when the NIC is down (a dead
// device cannot accept entries) or the table is full and the eviction
// policy refuses to make room.
func (sn *SmartNIC) Install(ft packet.FiveTuple) bool {
	if sn.Down() {
		return false
	}
	if _, _, _, ok := sn.table.Put(ft, 1); !ok {
		sn.InstallRefused++
		return false
	}
	return true
}

// ResetTable wipes the offload table — the state loss an outage causes:
// after recovery every flow must be re-vetted by the host slow path.
func (sn *SmartNIC) ResetTable() { sn.table.Reset() }

// Offload attempts to handle a packet on the NIC fast path. It returns
// true (and invokes done with the fast-path sojourn breakdown) when the
// flow is in the table and the dataplane has headroom; false punts the
// packet to the host — which is also what an outage or table miss does,
// giving offload deployments their graceful-degradation path.
func (sn *SmartNIC) Offload(ft packet.FiveTuple, done func(Sojourn)) bool {
	if sn.Down() {
		sn.ToHost++
		return false
	}
	// Use keeps recency truthful for LRU-managed tables: a fast-path hit
	// is a use.
	if _, hit := sn.table.Use(ft); !hit {
		sn.ToHost++
		return false
	}
	now := sn.s.Now()
	service := 1 / sn.cfg.CapacityPps * sn.slowdown()
	start := sn.nextFree
	if start < now {
		start = now
	}
	// A bounded fast-path queue: beyond 64 packets of backlog, punt.
	if float64(start-now) > 64*service {
		sn.Saturated++
		sn.ToHost++
		return false
	}
	finish := start + sim.Time(service)
	sn.nextFree = finish
	sn.busy += service
	sn.Offloaded++
	sojourn := Sojourn{
		WaitSeconds:    float64(start - now),
		ServiceSeconds: service,
		FixedSeconds:   sn.cfg.OffloadLatencySeconds,
	}
	if err := sn.pending.schedule(finish, sojourn, done); err != nil {
		panic(err)
	}
	return true
}

// BusySeconds returns the dataplane's cumulative busy time (sampler
// utilization probe).
func (sn *SmartNIC) BusySeconds() float64 { return sn.busy }

// BacklogPackets estimates the fast-path backlog in packets at the
// current simulated time (sampler queue-depth probe).
func (sn *SmartNIC) BacklogPackets() int {
	now := sn.s.Now()
	if sn.nextFree <= now {
		return 0
	}
	return int(float64(sn.nextFree-now)*sn.cfg.CapacityPps + 0.5)
}

// EnergyJoules implements Device.
func (sn *SmartNIC) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	busy := sn.busy
	if busy > end.Seconds() {
		busy = end.Seconds()
	}
	return sn.cfg.IdleWatts*end.Seconds() + (sn.cfg.ActiveWatts-sn.cfg.IdleWatts)*busy
}

// MaxPowerWatts implements Device.
func (sn *SmartNIC) MaxPowerWatts() float64 { return sn.cfg.ActiveWatts }

// CostVector implements Device.
func (sn *SmartNIC) CostVector() cost.Vector {
	return cost.Vector{metric.MetricPower: metric.Q(sn.cfg.ActiveWatts, metric.Watt)}
}
