package obs

// Utilization summary: the saturation-delta profiler (internal/profile)
// names the bottleneck stage of a pipeline per load regime. The raw
// material is the sampler's per-device "sample" events; this file
// aggregates them per device so a consumer can ask "which device ran
// hottest over this run" without re-parsing the trace. Like Breakdown,
// device order is first-seen, which is deterministic because sampler
// ticks are simulation events.

// UtilStat aggregates one device's samples over a traced run.
type UtilStat struct {
	// Device is the sampled device's name.
	Device string
	// Samples counts the ticks observed for this device.
	Samples int
	// MaxUtil is the peak windowed utilization seen in any tick.
	MaxUtil float64
	// MaxQueue is the peak instantaneous queue depth seen in any tick.
	MaxQueue int

	sumUtil  float64
	sumQueue float64
	// last is the device's most recent sample.
	last Event
}

// MeanUtil returns the device's mean windowed utilization.
func (u UtilStat) MeanUtil() float64 {
	if u.Samples == 0 {
		return 0
	}
	return u.sumUtil / float64(u.Samples)
}

// MeanQueue returns the device's mean sampled queue depth.
func (u UtilStat) MeanQueue() float64 {
	if u.Samples == 0 {
		return 0
	}
	return u.sumQueue / float64(u.Samples)
}

// UtilSummary accumulates per-device utilization statistics from sample
// events. The zero value is ready to use.
type UtilSummary struct {
	order []string
	byDev map[string]*UtilStat
}

func (u *UtilSummary) add(e Event) {
	if u.byDev == nil {
		u.byDev = make(map[string]*UtilStat)
	}
	st := u.byDev[e.Device]
	if st == nil {
		st = &UtilStat{Device: e.Device}
		u.byDev[e.Device] = st
		u.order = append(u.order, e.Device)
	}
	st.Samples++
	st.last = e
	st.sumUtil += e.Util
	st.sumQueue += float64(e.Queue)
	if e.Util > st.MaxUtil {
		st.MaxUtil = e.Util
	}
	if e.Queue > st.MaxQueue {
		st.MaxQueue = e.Queue
	}
}

// Devices returns the per-device aggregates in first-seen order.
func (u *UtilSummary) Devices() []UtilStat {
	if u == nil {
		return nil
	}
	out := make([]UtilStat, 0, len(u.order))
	for _, name := range u.order {
		out = append(out, *u.byDev[name])
	}
	return out
}

// Bottleneck returns the device with the highest mean utilization —
// ties broken by peak queue depth, then by first-seen order — and false
// when no samples were recorded. Constant-power devices (Busy nil in
// their sampler Source) always report utilization 0 and so only win
// when nothing else registered load.
func (u *UtilSummary) Bottleneck() (UtilStat, bool) {
	if u == nil || len(u.order) == 0 {
		return UtilStat{}, false
	}
	best := *u.byDev[u.order[0]]
	for _, name := range u.order[1:] {
		st := *u.byDev[name]
		if st.MeanUtil() > best.MeanUtil() ||
			(st.MeanUtil() == best.MeanUtil() && st.MaxQueue > best.MaxQueue) {
			best = st
		}
	}
	return best, true
}

// Utilization returns the tracer's per-device utilization aggregation
// over all sample events emitted so far (nil for a nil tracer).
func (t *Tracer) Utilization() *UtilSummary {
	if t == nil {
		return nil
	}
	return &t.us
}
