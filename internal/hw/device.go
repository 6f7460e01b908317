// Package hw models the heterogeneous hardware devices of the paper's
// examples — CPU cores, regular NICs, SmartNICs, programmable switches
// and FPGAs — as discrete-event queueing servers with power models and
// cost vectors.
//
// This package is the simulated substitute for the physical testbeds the
// paper's examples presume (see DESIGN.md, "Substitutions"). Each device
// model exposes:
//
//   - processing behaviour (service times, queues, drops) driven by the
//     cycle costs reported by internal/nf, so performance emerges from
//     executing code;
//   - a power model (idle/active split, integrated to energy over
//     simulated time), power being the paper's exemplar cost metric; and
//   - a cost vector (power plus device-specific metrics such as cores or
//     LUTs) feeding the end-to-end coverage machinery in internal/cost.
package hw

import (
	"fmt"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/sim"
)

// Device is a hardware component with a power model and a cost vector.
type Device interface {
	// Name identifies the device instance.
	Name() string
	// EnergyJoules returns the total energy consumed over [0, end),
	// integrating idle and active power.
	EnergyJoules(end sim.Time) float64
	// MaxPowerWatts returns the device's peak (provisioned) power draw,
	// the figure a deployment reports as its power cost. Evaluating
	// provisioned rather than instantaneous power matches how the
	// paper's examples attribute "50 W" to a configuration.
	MaxPowerWatts() float64
	// CostVector returns the device's context-independent cost metrics
	// (always including power; cores/LUTs where applicable).
	CostVector() cost.Vector
}

// Sojourn attributes a packet's in-device latency to stages: time
// spent queued behind earlier packets, the device's own service time,
// and the fixed I/O latency of reaching the device (PCIe transfer,
// offload path, pipeline fill). Completion callbacks receive the full
// breakdown so the observability layer can attribute latency per stage
// instead of a single opaque number.
type Sojourn struct {
	// WaitSeconds is the time queued before service began.
	WaitSeconds float64
	// ServiceSeconds is the device's busy time on this packet.
	ServiceSeconds float64
	// FixedSeconds is the path's fixed I/O latency.
	FixedSeconds float64
}

// Total returns the packet's end-to-end in-device latency.
func (s Sojourn) Total() float64 {
	return s.WaitSeconds + s.ServiceSeconds + s.FixedSeconds
}

// completion is a packet a FIFO device has accepted and not yet
// finished: its sojourn breakdown and the caller's callback.
type completion struct {
	so   Sojourn
	done func(Sojourn)
}

// completions is the pending-completion ring shared by the FIFO device
// models (Core, SmartNIC, FPGA). Each of them serves packets in
// submission order — finish = max(nextFree, now) + service, then
// nextFree = finish — so completion times never decrease in submission
// order, and the kernel breaks equal times by schedule sequence. The
// kernel therefore fires a device's completion events in exactly the
// order they were pushed here, and every event can run one callback
// registered with the kernel at construction that pops the ring head,
// instead of a closure allocated per packet.
type completions struct {
	s    *sim.Sim
	fire sim.Callback // the owning device's completion method, registered once
	ring []completion
	head int
	n    int
}

// initialRing is the pending ring's starting size; it must be a power
// of two (grow doubles it, and slots are found by masking).
const initialRing = 16

func newCompletions(s *sim.Sim, fire func()) completions {
	return completions{s: s, fire: s.Register(fire), ring: make([]completion, initialRing)}
}

// schedule queues a completion at finish, which must not precede the
// previous one.
func (c *completions) schedule(finish sim.Time, so Sojourn, done func(Sojourn)) error {
	if c.n == len(c.ring) {
		c.grow()
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = completion{so: so, done: done}
	c.n++
	return c.s.AtCallback(finish, c.fire)
}

// grow doubles the ring. Appending the ring to itself leaves the live
// entries contiguous from head, wrapping into the second copy; the
// stale duplicates around them are cleared.
func (c *completions) grow() {
	n := len(c.ring)
	//fairlint:allow hotalloc the ring doubles until it holds the device's peak backlog; later completions reuse its slots
	c.ring = append(c.ring[:n:n], c.ring...)
	clear(c.ring[:c.head])
	clear(c.ring[n+c.head:])
}

// pop removes the oldest pending completion. The slot keeps its stale
// callback until reused: callbacks belong to the deployment's recycled
// packet records, which live as long as the ring does, and not clearing
// spares a pointer store per packet.
func (c *completions) pop() completion {
	p := c.ring[c.head]
	c.head = (c.head + 1) & (len(c.ring) - 1)
	c.n--
	return p
}

// run delivers the completion to its callback, if any.
func (p completion) run() {
	if p.done != nil {
		p.done(p.so)
	}
}

// ComponentsOf converts devices into cost components for end-to-end
// composition (paper Principle 3).
func ComponentsOf(devices ...Device) []cost.Component {
	out := make([]cost.Component, 0, len(devices))
	for _, d := range devices {
		out = append(out, cost.Component{Name: d.Name(), Costs: d.CostVector()})
	}
	return out
}

// TotalPowerWatts composes the provisioned power of a set of devices
// end-to-end; it fails only if a device omits the power metric, which
// would be a bug (every Device must report power).
func TotalPowerWatts(devices ...Device) (float64, error) {
	q, err := cost.ComposePower(ComponentsOf(devices...))
	if err != nil {
		return 0, fmt.Errorf("hw: composing power: %w", err)
	}
	w, err := q.Convert(metric.Watt)
	if err != nil {
		return 0, err
	}
	return w.Value, nil
}
