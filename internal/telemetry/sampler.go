package telemetry

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// The sampler records what the harness costs while it runs: goroutine
// count, heap in use, cumulative GC pause and worker-pool occupancy.
// Samples are events in the same stream as the cell transitions, so
// the reporter can line "the pool was 40% idle here" up against "these
// three cells were retrying".

// Sample takes one sample now and appends it to the stream. The
// background loop started by StartSampler calls this on every tick;
// tests call it directly so nothing sleeps.
func (r *Recorder) Sample() {
	goroutines, heap, pauseMS, numGC := runtimeSample()
	ev := Event{
		Ev:         EvSample,
		Goroutines: goroutines,
		HeapBytes:  heap,
		GCPauseMS:  pauseMS,
		NumGC:      numGC,
		Busy:       int(r.busy.Load()),
		CellsDone:  int(r.cellsDone.Load()),
	}

	r.Event(ev)
}

// samplePeriod is the runtime sampler's tick.
const samplePeriod = 100 * time.Millisecond

// StartSampler samples every samplePeriod on a background goroutine
// until the returned stop function is called; stop takes one final
// sample so short runs still get at least one.
func (r *Recorder) StartSampler() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(samplePeriod)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				r.Sample()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		r.Sample()
	}
}

// runtimeSample reads the process-level figures. Goroutine count and
// heap-in-use come from runtime/metrics (the sampling-friendly API);
// cumulative GC pause falls back to MemStats, which is the only stable
// home of the pause total.
func runtimeSample() (goroutines int, heap uint64, pauseMS float64, numGC uint32) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		goroutines = int(samples[0].Value.Uint64())
	} else {
		goroutines = runtime.NumGoroutine()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if samples[1].Value.Kind() == metrics.KindUint64 {
		heap = samples[1].Value.Uint64()
	} else {
		heap = ms.HeapInuse
	}
	return goroutines, heap, float64(ms.PauseTotalNs) / 1e6, ms.NumGC
}
