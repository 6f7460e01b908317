package obs

import "fairbench/internal/sim"

// Source describes one device the sampler probes. Active devices expose
// a cumulative busy-seconds counter from which the sampler derives
// windowed utilization; constant-power devices (NIC, switch, chassis)
// leave Busy nil and report their constant draw.
type Source struct {
	// Name labels the device in sample events.
	Name string
	// Busy returns cumulative busy seconds; nil for constant-power
	// devices (utilization stays 0, power stays ActiveWatts).
	Busy func() float64
	// Queue returns the instantaneous queue/backlog depth in packets;
	// nil when the device has no queue.
	Queue func() int
	// IdleWatts and ActiveWatts bound the device's power envelope;
	// instantaneous power is interpolated by window utilization. Set
	// both equal for constant-draw devices.
	IdleWatts, ActiveWatts float64
}

// Sampler records per-device utilization, queue depth and instantaneous
// power at a fixed virtual-time period. Because ticks are ordinary
// simulation events, sampling is itself deterministic: the same seed
// yields the same samples at the same virtual times, byte for byte.
type Sampler struct {
	tr      *Tracer
	every   float64
	sources []Source
	last    []float64 // busy seconds at the previous tick, per source
	lastT   float64
}

// NewSampler builds a sampler emitting to tr every `every` seconds of
// virtual time for each source, in the given (stable) source order.
func NewSampler(tr *Tracer, every float64, sources ...Source) *Sampler {
	return &Sampler{tr: tr, every: every, sources: sources, last: make([]float64, len(sources))}
}

// Arm schedules the periodic ticks on s up to (and including) horizon;
// the period must be positive. It returns the kernel's error for a
// first tick it cannot schedule. A nil tracer arms nothing.
func (sp *Sampler) Arm(s *sim.Sim, horizon float64) error {
	if sp.tr == nil || len(sp.sources) == 0 {
		return nil
	}
	var tick func()
	tick = func() {
		sp.sample(s.Now().Seconds())
		next := s.Now() + sim.Time(sp.every)
		if next.Seconds() <= horizon {
			// Scheduling in the future cannot fail.
			_ = s.At(next, tick)
		}
	}
	return s.At(sim.Time(sp.every), tick)
}

// sample records one tick across all sources.
func (sp *Sampler) sample(now float64) {
	dt := now - sp.lastT
	for i, src := range sp.sources {
		util := 0.0
		if src.Busy != nil {
			b := src.Busy()
			if dt > 0 {
				util = (b - sp.last[i]) / dt
				if util < 0 {
					util = 0
				}
				if util > 1 {
					util = 1
				}
			}
			sp.last[i] = b
		}
		queue := 0
		if src.Queue != nil {
			queue = src.Queue()
		}
		watts := src.ActiveWatts
		if src.Busy != nil {
			watts = src.IdleWatts + (src.ActiveWatts-src.IdleWatts)*util
		}
		sp.tr.Emit(Event{T: now, Kind: "sample", Device: src.Name, Util: util, Queue: queue, Watts: watts})
	}
	sp.lastT = now
}
