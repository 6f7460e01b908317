package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"fairbench"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// A replay repeats its inputs in passes, at least minPasses of them and
// until minReplayOps operations have run, so that each rung is timed
// over tens of milliseconds rather than one. replayChunk bounds the
// operations timed between two forced collections: a chunk allocates at
// most a few MiB, less than the headroom the collector leaves.
const (
	minPasses    = 2
	minReplayOps = 1 << 15
	replayChunk  = 1 << 14
)

// rung is one layer's share of the per-packet cost: how often the
// deployment calls into the layer per offered packet, counted in the
// traced re-runs, and what one call costs when the benchmark replays it
// on objects of its own.
type rung struct {
	name              string
	calls, ns, allocs float64
}

// ladder holds the rungs of one workload and the tracing tax.
type ladder struct {
	sim, workload, parse, nf, submit, offload, meters rung
	// obsNs and obsAllocs are what an attached obs tracer adds per
	// packet; tracing is not part of the untraced run, so not a rung.
	obsNs, obsAllocs float64
}

func (l *ladder) rungs() []rung {
	return []rung{l.sim, l.workload, l.parse, l.nf, l.submit, l.offload, l.meters}
}

// sum is the per-packet cost the rungs explain.
func (l *ladder) sum() (ns, allocs float64) {
	for _, r := range l.rungs() {
		ns += r.calls * r.ns
		allocs += r.calls * r.allocs
	}
	return ns, allocs
}

// print writes the rung table: each rung, their sum, the untraced
// per-packet cost and the residual the rungs leave unexplained.
func (l *ladder) print(w io.Writer, name string, nsPerPkt, allocsPerPkt float64) {
	fmt.Fprintf(w, "%s rungs, per offered packet\n", name)
	fmt.Fprintf(w, "%-22s %10s %10s %10s %11s\n", "rung", "calls/pkt", "ns/call", "ns/pkt", "allocs/pkt")
	for _, r := range l.rungs() {
		fmt.Fprintf(w, "%-22s %10.4f %10.1f %10.1f %11.4f\n", r.name, r.calls, r.ns, r.calls*r.ns, r.calls*r.allocs)
	}
	ns, allocs := l.sum()
	fmt.Fprintf(w, "%-44s %10.1f %11.4f\n", "sum", ns, allocs)
	fmt.Fprintf(w, "%-44s %10.1f %11.4f\n", "testbed (untraced Run)", nsPerPkt, allocsPerPkt)
	fmt.Fprintf(w, "%-44s %10.1f %11.4f\n", "residual", nsPerPkt-ns, allocsPerPkt-allocs)
	fmt.Fprintf(w, "%-44s %10.1f %11.4f\n", "obs tracer (not in sum)", l.obsNs, l.obsAllocs)
}

// outcome is one packet's fate as its obs span recorded it.
type outcome struct {
	id      uint64
	at, dur float64
	verdict string
}

// obsCounts aggregates the obs events of the traced trials; keep
// collects the outcomes of the current trial.
type obsCounts struct {
	events, kernelTicks uint64
	pendingSum          float64
	keep                bool
	outcomes            []outcome
}

func (o *obsCounts) add(e obs.Event) {
	switch e.Kind {
	case "run-end":
		o.events += e.Events
	case "kernel":
		o.kernelTicks++
		o.pendingSum += float64(e.Pending)
	case "span":
		if o.keep {
			o.outcomes = append(o.outcomes, outcome{id: e.ID, at: e.T, dur: e.Dur, verdict: e.Verdict})
		}
	}
}

// sameAs names a traced trial whose simulated Result differs from the
// untraced one: tracing and the mirrored Config must not change it.
func sameAs(s, base sample) string {
	if s.err != nil {
		return "run: " + s.err.Error()
	}
	if s.digest != base.digest {
		return fmt.Sprintf("result digest %s differs from the untraced trial's %s", s.digest, base.digest)
	}
	return ""
}

// ladder re-runs the first trials twice — under an obs tracer, then
// with tapped NFs — and replays each layer on the inputs they yield.
func (w *simWorkload) ladder(cfg config, base []sample, nsPerPkt, allocsPerPkt float64, rep *report, sp *spans) (*ladder, error) {
	n := min(tracedTrials, len(base))
	l := &ladder{}

	var oc obsCounts
	var traced []sample
	phase := sp.begin("obs", 0, -1)
	for k := 0; k < n; k++ {
		tr := obs.New(nil)
		oc.keep = k == 0
		tr.SetSink(oc.add)
		s, err := w.trialOnce(cfg.seed, k, nil, tr, sp, phase)
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("%s obs-traced trial %d", w.name, k), sameAs(s, base[k]))
		traced = append(traced, s)
	}
	sp.end(phase)
	smoothScales(traced)
	var obsNs, obsMallocs, obsOffered float64
	for _, s := range traced {
		obsNs += s.runNs * s.scale
		obsMallocs += float64(s.mallocs)
		obsOffered += float64(s.res.Offered.Packets)
	}
	l.obsNs = ratio(obsNs, obsOffered) - nsPerPkt
	l.obsAllocs = ratio(obsMallocs, obsOffered) - allocsPerPkt

	tp := &tap{}
	var tapOffered float64
	phase = sp.begin("tap", 0, -1)
	for k := 0; k < n; k++ {
		tp.capture = k == 0
		s, err := w.trialOnce(cfg.seed, k, tp, nil, sp, phase)
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("%s tapped trial %d", w.name, k), sameAs(s, base[k]))
		tapOffered += float64(s.res.Offered.Packets)
	}
	sp.end(phase)

	phase = sp.begin("replays", 0, -1)
	defer sp.end(phase)
	seed := fairbench.TrialSeed(cfg.seed, 0)
	outs := oc.outcomes
	sort.Slice(outs, func(i, j int) bool { return outs[i].id < outs[j].id })
	nfCalls := ratio(float64(tp.calls), tapOffered)
	var err error

	id := sp.begin("sim", phase, -1)
	depth := max(1, int(math.Round(ratio(oc.pendingSum, float64(oc.kernelTicks)))))
	l.sim = replaySim(depth, seed)
	l.sim.calls = ratio(float64(oc.events), obsOffered)
	sp.end(id)

	id = sp.begin("workload", phase, -1)
	var pkts []workload.Pkt
	if l.workload, pkts, err = w.replayWorkload(seed, outs); err != nil {
		return nil, err
	}
	sp.end(id)

	id = sp.begin("packet", phase, -1)
	l.parse = replayParse(tp.frames)
	l.parse.calls = nfCalls
	sp.end(id)

	id = sp.begin("nf", phase, -1)
	if l.nf, err = replayNF(tp, l.parse); err != nil {
		return nil, err
	}
	l.nf.calls = nfCalls
	sp.end(id)

	id = sp.begin("hw", phase, -1)
	turn := replayKernelTurn()
	l.submit = replaySubmit(tp.cycles, turn)
	l.submit.calls = nfCalls
	l.offload = replayOffload(pkts, turn)
	if w.mirror(seed).SmartNIC != nil {
		// Every offered packet asks the SmartNIC first.
		l.offload.calls = 1
	}
	sp.end(id)

	id = sp.begin("measure", phase, -1)
	l.meters = replayMeters(outs, pkts, w.scenario != "")
	sp.end(id)
	return l, nil
}

// perOp replays ops operations per pass and returns the mean reference
// time and heap allocations per operation. Each pass starts with an
// untimed prep (when non-nil) and a calibration, and runs body over
// [lo, hi) chunks of at most replayChunk operations, each after a forced
// collection: no collection runs inside a timed chunk (that cost stays
// in the residual) and every chunk starts from the same heap state,
// whatever the replay's size.
func perOp(ops int, prep func(), body func(lo, hi int)) (ns, allocs float64) {
	if ops == 0 {
		return 0, 0
	}
	var totalNs float64
	var mallocs uint64
	passes := max(minPasses, (minReplayOps+ops-1)/ops)
	for pass := 0; pass < passes; pass++ {
		if prep != nil {
			prep()
		}
		scale := calibrate()
		for lo := 0; lo < ops; lo += replayChunk {
			hi := min(ops, lo+replayChunk)
			if lo > 0 {
				runtime.GC()
			}
			t, m, _ := cost(func() { body(lo, hi) })
			totalNs += t * scale
			mallocs += m
		}
	}
	n := float64(ops * passes)
	return totalNs / n, float64(mallocs) / n
}

// replaySim times sim.At plus one event's turn through the heap on a
// kernel holding depth pending events: every event schedules one
// successor, so the depth stays put. Gaps are drawn beforehand so that
// the timed loop holds nothing but kernel work.
func replaySim(depth int, seed uint64) rung {
	rng := sim.NewRNG(seed)
	gaps := make([]sim.Time, 4096)
	for i := range gaps {
		gaps[i] = sim.Time(rng.Float64() * 1e-3)
	}
	var s *sim.Sim
	var left int
	var fire func()
	fire = func() {
		if left--; left == 0 {
			s.Halt()
		}
		// A time after now is always schedulable.
		_ = s.At(s.Now()+gaps[left&(len(gaps)-1)], fire)
	}
	prep := func() {
		s = sim.New()
		for i := 0; i < depth; i++ {
			_ = s.At(gaps[i&(len(gaps)-1)], fire)
		}
	}
	ns, allocs := perOp(minReplayOps, prep, func(lo, hi int) {
		left = hi - lo
		s.RunAll()
	})
	return rung{name: "sim (event)", ns: ns, allocs: allocs}
}

// replayKernelTurn times what the hw replays spend in the kernel per
// completion — scheduling one prebuilt callback and running it on an
// otherwise empty queue — with the same loop, so that subtracting it
// leaves the device model's own work.
func replayKernelTurn() rung {
	s := sim.New()
	fn := func() {}
	ns, allocs := perOp(minReplayOps, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// A time after now is always schedulable.
			_ = s.At(s.Now()+1e-9, fn)
			s.RunAll()
		}
	})
	return rung{ns: ns, allocs: allocs}
}

// replayWorkload times the generator producing trial 0's packets at
// their recorded arrival times, and returns those packets.
func (w *simWorkload) replayWorkload(seed uint64, outs []outcome) (rung, []workload.Pkt, error) {
	var t *trial
	var err error
	fresh := func() {
		if err == nil {
			t, err = w.build(seed, nil)
		}
	}
	ns, allocs := perOp(len(outs), fresh, func(lo, hi int) {
		for _, o := range outs[lo:hi] {
			if err == nil {
				_, err = t.next(o.at)
			}
		}
	})
	pkts := make([]workload.Pkt, len(outs))
	fresh()
	for i, o := range outs {
		if err == nil {
			pkts[i], err = t.next(o.at)
		}
	}
	if err != nil {
		return rung{}, nil, fmt.Errorf("%s: workload replay: %w", w.name, err)
	}
	return rung{name: "workload", calls: 1, ns: ns, allocs: allocs}, pkts, nil
}

// replayParse times a parser of the benchmark's own over the frames the
// tapped NFs saw.
func replayParse(frames [][][]byte) rung {
	p := packet.NewParser()
	var all [][]byte
	for _, fs := range frames {
		all = append(all, fs...)
	}
	ns, allocs := perOp(len(all), nil, func(lo, hi int) {
		for _, f := range all[lo:hi] {
			// Every captured frame parsed once already in the run.
			_ = p.Parse(f)
		}
	})
	return rung{name: "packet (parse)", ns: ns, allocs: allocs}
}

// replayNF times fresh NF instances processing each core's captured
// frames in their original order, minus the parse each call needs.
func replayNF(tp *tap, parse rung) (rung, error) {
	p := packet.NewParser()
	var ns, allocs, n float64
	for core, frames := range tp.frames {
		var f nf.Func
		var err error
		fresh := func() {
			if err == nil {
				f, err = tp.newNF(core)
			}
		}
		coreNs, coreAllocs := perOp(len(frames), fresh, func(lo, hi int) {
			if err != nil {
				return
			}
			for _, fr := range frames[lo:hi] {
				// The run parsed and processed these frames without error.
				_ = p.Parse(fr)
				_, _ = f.Process(p, fr)
			}
		})
		if err != nil {
			return rung{}, fmt.Errorf("nf replay: %w", err)
		}
		ns += coreNs * float64(len(frames))
		allocs += coreAllocs * float64(len(frames))
		n += float64(len(frames))
	}
	return rung{name: "nf (process)", ns: ratio(ns, n) - parse.ns, allocs: ratio(allocs, n) - parse.allocs}, nil
}

// replaySubmit times hw.Core.Submit on a kernel of the benchmark's own
// with the NF cycle costs of trial 0, minus a kernel turn per
// completion.
func replaySubmit(cycles []uint64, turn rung) rung {
	s := sim.New()
	core := hw.NewCore("replay/core", s, testbed.ScenarioCore)
	done := func(hw.Sojourn) {}
	ns, allocs := perOp(len(cycles), nil, func(lo, hi int) {
		for _, c := range cycles[lo:hi] {
			if core.Submit(c, done) {
				s.RunAll()
			}
		}
	})
	return rung{name: "hw (core submit)", ns: ns - turn.ns, allocs: allocs - turn.allocs}
}

// replayOffload times hw.SmartNIC.Offload over trial 0's flows with
// every benign flow installed, minus a kernel turn per fast-path
// completion.
func replayOffload(pkts []workload.Pkt, turn rung) rung {
	s := sim.New()
	sn := hw.NewSmartNIC("replay/smartnic", s, testbed.ScenarioSmartNIC)
	for _, pk := range pkts {
		if !pk.Attack {
			// A refused install only turns a replayed hit into a miss.
			_ = sn.Install(pk.Flow)
		}
	}
	done := func(hw.Sojourn) {}
	hits, calls := 0, 0
	ns, allocs := perOp(len(pkts), nil, func(lo, hi int) {
		for _, pk := range pkts[lo:hi] {
			if sn.Offload(pk.Flow, done) {
				hits++
				s.RunAll()
			}
		}
		calls += hi - lo
	})
	events := ratio(float64(hits), float64(calls))
	return rung{name: "hw (smartnic offload)", ns: ns - events*turn.ns, allocs: allocs - events*turn.allocs}
}

// sink keeps replayed results live so the compiler cannot drop calls.
var sink float64

// replayMeters feeds trial 0's outcomes through fresh throughput,
// latency, fairness and (for scenario runs) state meters, as the
// testbed does per packet and when it collects the Result.
func replayMeters(outs []outcome, pkts []workload.Pkt, state bool) rung {
	var tput measure.ThroughputMeter
	var lat *measure.LatencyMeter
	var fair *measure.FairnessMeter
	var sm *measure.StateMeter
	fresh := func() {
		tput = measure.ThroughputMeter{}
		tput.Start(0)
		lat = measure.NewLatencyMeter()
		fair = measure.NewFairnessMeter()
		if state {
			sm = measure.NewStateMeter()
		}
	}
	ns, allocs := perOp(len(outs), fresh, func(lo, hi int) {
		for i, o := range outs[lo:hi] {
			pk := pkts[lo+i]
			size, class := len(pk.Frame), string(pk.Class)
			tput.Offer(size)
			sm.Offer(class, size)
			switch o.verdict {
			case "loss":
				tput.Lose()
				sm.Lose(class)
				continue
			case "forward":
				tput.Process(size, true)
				sm.Deliver(class, size)
				fair.Record(pk.Flow, size)
			default:
				tput.Process(size, false)
				sm.Drop(class)
			}
			// The testbed drops rejected samples the same way.
			_ = lat.RecordSeconds(o.dur)
		}
		if hi == len(outs) {
			tput.Stop(trialSeconds)
			sink = tput.LossFraction() + lat.Summary().Mean + lat.P50Micros() + lat.P99Micros() + fair.JFI()
		}
	})
	return rung{name: "measure", calls: 1, ns: ns, allocs: allocs}
}
