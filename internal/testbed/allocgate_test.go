package testbed

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// The allocation gate is the dynamic twin of the //fairbench:hotpath
// annotations: fairlint checks statically that an annotated function
// and everything it reaches does not allocate at steady state, and this
// table measures that it does not. Each row drives one path and bounds
// its heap allocations and bytes per op (one event, packet, span or
// cell). Counts come from runtime.MemStats deltas divided as floats, so
// a path that allocates on every other op reads 0.5, not 0 as
// testing.AllocsPerRun's integer division would report. Bounds are set
// from measured go1.24.0 figures plus headroom that stays below one
// allocation per op, so one injected allocation on any gated path fails
// the row on every Go version.

// allocRow is one gated path.
type allocRow struct {
	name string
	// maxAllocs and maxBytes bound heap allocations and bytes per op.
	maxAllocs, maxBytes float64
	// calls is the number of measured calls, after one warm-up call.
	calls int
	// setup builds the fixture outside the measurement. It returns one
	// call of the measured path and the number of ops that call makes.
	setup func(t *testing.T) (call func(), ops float64)
}

// measureAllocs pins GOMAXPROCS to 1, warms call up once, then returns
// the heap allocations and bytes per call over calls calls.
func measureAllocs(calls int, call func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// check reports every bound the measured figures exceed.
func (r allocRow) check(allocs, bytes float64) error {
	var over []string
	if allocs > r.maxAllocs {
		over = append(over, fmt.Sprintf("%.4g allocs/op exceeds bound %g", allocs, r.maxAllocs))
	}
	if bytes > r.maxBytes {
		over = append(over, fmt.Sprintf("%.4g B/op exceeds bound %g", bytes, r.maxBytes))
	}
	if over == nil {
		return nil
	}
	return fmt.Errorf("alloc gate row %s: %s", r.name, strings.Join(over, "; "))
}

// run measures r and reports every bound it exceeds.
func (r allocRow) run(t *testing.T) {
	t.Helper()
	call, ops := r.setup(t)
	allocs, bytes := measureAllocs(r.calls, call)
	allocs, bytes = allocs/ops, bytes/ops
	t.Logf("%.6f allocs/op (bound %g), %.4f B/op (bound %g)", allocs, r.maxAllocs, bytes, r.maxBytes)
	if err := r.check(allocs, bytes); err != nil {
		t.Error(err)
	}
}

func TestAllocGate(t *testing.T) {
	for _, r := range allocRows {
		t.Run(r.name, r.run)
	}
}

// TestSmartNICPacketPathAllocs bounds the steady-state allocation cost
// of the simulated packet path on its own: the value-heap kernel, the
// devices' completion rings and the recycled packet records leave only
// per-run setup (meters, pools warming up), well under 0.2 allocations
// per offered packet. It runs the testbed-smartnic-packet row.
func TestSmartNICPacketPathAllocs(t *testing.T) {
	for _, r := range allocRows {
		if r.name == "testbed-smartnic-packet" {
			r.run(t)
			return
		}
	}
	t.Fatal("no testbed-smartnic-packet row in the alloc gate")
}

// allocGateSink keeps the self-test's allocation on the heap.
var allocGateSink []byte

// TestAllocGateCountsFractions pins the helper's arithmetic: a closure
// that allocates on every other call measures half an allocation per
// call, and a row over its bound names itself, the figure and the bound.
func TestAllocGateCountsFractions(t *testing.T) {
	n := 0
	allocs, bytes := measureAllocs(400, func() {
		n++
		if n%2 == 0 {
			allocGateSink = make([]byte, 64)
		}
	})
	if math.Abs(allocs-0.5) > 0.01 {
		t.Errorf("every-other-call allocation measured %v allocs/op, want 0.5 ± 0.01", allocs)
	}
	if math.Abs(bytes-32) > 1 {
		t.Errorf("every-other-call 64 B allocation measured %v B/op, want 32 ± 1", bytes)
	}

	r := allocRow{name: "every-other", maxAllocs: 0.25, maxBytes: 64}
	err := r.check(allocs, bytes)
	if err == nil {
		t.Fatal("a row over its allocs bound passed")
	}
	for _, frag := range []string{"every-other", "0.5 allocs/op", "bound 0.25"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("violation %q does not mention %q", err, frag)
		}
	}
	if strings.Contains(err.Error(), "B/op") {
		t.Errorf("violation %q reports a bytes bound that held", err)
	}
}

// Gated paths, keyed by the names the hotpath notes cite.
var allocRows = []allocRow{
	// Simulation kernel: schedule one event and run one at a queue kept
	// 64 deep, alternating Run and RunAll.
	{name: "sim-event-throughput", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: func(t *testing.T) (func(), float64) {
		s := sim.New()
		halt := s.Halt // every event stops the loop, so each op runs exactly one
		for i := 0; i < 64; i++ {
			if err := s.At(sim.Time(i), halt); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		return func() {
			k++
			if err := s.At(s.Now()+sim.Time(k%8), halt); err != nil {
				t.Fatal(err)
			}
			if k%2 == 0 {
				s.RunAll()
			} else {
				s.Run(s.Now() + 8)
			}
		}, 1
	}},
	// Header parse and validation, cycling over UDP and TCP frames.
	{name: "packet-parse", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: func(t *testing.T) (func(), float64) {
		frames := allocGateScenarioFrames(t, "zipf:flows=64,tcp=0.3;seed:1")
		p := packet.NewParser()
		k := 0
		return func() {
			k++
			if err := p.Parse(frames[k%len(frames)]); err != nil {
				t.Fatal(err)
			}
		}, 1
	}},
	// The canonical firewall's rule match and verdict on parsed packets.
	{name: "nf-firewall-process", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: func(t *testing.T) (func(), float64) {
		fw := nf.NewFirewall("gate", nf.NewLinearMatcher(FirewallRules(DefaultFillerRules)))
		parsers := allocGateParsers(t, allocGateScenarioFrames(t, "zipf:flows=64,attack=0.2,tcp=0.3;seed:1"))
		k := 0
		return func() {
			k++
			if _, err := fw.Process(parsers[k%len(parsers)], nil); err != nil {
				t.Fatal(err)
			}
		}, 1
	}},
	// The end-to-end SmartNIC deployment: one call is a fresh 10 ms run
	// at 4 Mpps CBR, so the per-packet figure carries the run's setup
	// (meters, pools warming up) amortized over its 40k packets.
	{name: "testbed-smartnic-packet", maxAllocs: 0.2, maxBytes: 52, calls: 3, setup: func(t *testing.T) (func(), float64) {
		const pps, seconds = 4e6, 0.01
		// One run here counts the packets per run, then the warm-up
		// call and three measured ones.
		ds := make([]*Deployment, 5)
		gens := make([]*workload.Generator, len(ds))
		for i := range ds {
			var err error
			if ds[i], err = SmartNICFirewall(); err != nil {
				t.Fatal(err)
			}
			if gens[i], err = E6Workload(1); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		run := func() uint64 {
			res, err := ds[next].Run(gens[next], workload.CBR{}, pps, seconds)
			next++
			if err != nil {
				t.Fatal(err)
			}
			return res.Offered.Packets
		}
		packets := run()
		return func() {
			if n := run(); n != packets {
				t.Fatalf("offered %d packets, want %d as in every seeded run", n, packets)
			}
		}, float64(packets)
	}},
	// Span lifecycle without a writer. The tracer allocates by design;
	// the bound pins today's cost so it can only fall.
	{name: "obs-span", maxAllocs: 6.5, maxBytes: 184, calls: 20000, setup: func(t *testing.T) (func(), float64) {
		tr := obs.New(nil)
		k := 0
		return func() {
			k++
			sp := tr.StartSpan(float64(k))
			sp.Stage("queue", 1e-6)
			sp.Stage("service", 2e-6)
			sp.End("gate", "forward")
		}, 1
	}},
	// Bounded conntrack at a 4:1 flow-to-table ratio, so every policy
	// runs its degradation path (refusal or eviction) continuously.
	{name: "nf-conntrack-evict-none", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: allocGateConntrack(nf.EvictNone)},
	{name: "nf-conntrack-evict-random", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: allocGateConntrack(nf.EvictRandom)},
	{name: "nf-conntrack-evict-lru", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: allocGateConntrack(nf.EvictLRU)},
	// Scenario generation from a 10^6-flow Zipf population with SYN
	// flood, amplification and churn active, at 4 Mpps arrival spacing.
	{name: "workload-scenario-gen", maxAllocs: 0.05, maxBytes: 4, calls: 20000, setup: func(t *testing.T) (func(), float64) {
		sc, err := workload.ParseScenario(
			"zipf:flows=1000000,skew=1.1,tcp=0.3;synflood:rate=0.3;amplify:rate=0.1;churn:life=5ms;seed:1")
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.NewScenarioGen(sc)
		if err != nil {
			t.Fatal(err)
		}
		const dt = 2.5e-7
		k := 0
		draw := func() {
			k++
			if _, _, err := g.NextAt(float64(k) * dt); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the template cache through every (proto, size, syn) shape.
		for i := 0; i < 20000; i++ {
			draw()
		}
		return draw, 1
	}},
}

// allocGateFrames draws one frame per flow of spec.
func allocGateFrames(t *testing.T, spec workload.Spec) [][]byte {
	g, err := workload.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, spec.Flows)
	for i := range frames {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = pk.Frame
	}
	return frames
}

// allocGateScenarioFrames draws 64 frames from the scenario spec: the
// UDP generator has no TCP flows, a scenario mixes both transports.
func allocGateScenarioFrames(t *testing.T, spec string) [][]byte {
	sc, err := workload.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 64)
	for i := range frames {
		pk, _, err := g.NextAt(float64(i) * 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = pk.Frame
	}
	return frames
}

// allocGateParsers returns one parser per frame, each holding that
// frame parsed.
func allocGateParsers(t *testing.T, frames [][]byte) []*packet.Parser {
	parsers := make([]*packet.Parser, len(frames))
	for i, f := range frames {
		parsers[i] = packet.NewParser()
		if err := parsers[i].Parse(f); err != nil {
			t.Fatal(err)
		}
	}
	return parsers
}

// allocGateConntrack gates the stateful firewall with the given
// eviction policy: 4096 flows against a 1024-entry table.
func allocGateConntrack(policy nf.EvictPolicy) func(t *testing.T) (func(), float64) {
	return func(t *testing.T) (func(), float64) {
		const flows, entries = 4096, 1024
		ct := nf.NewConntrackWith("gate", nf.NewLinearMatcher(FirewallRules(DefaultFillerRules)),
			nf.ConntrackConfig{MaxEntries: entries, Policy: policy, Seed: 1})
		parsers := allocGateParsers(t, allocGateFrames(t, workload.Spec{Flows: flows, Seed: 1}))
		process := func(i int) {
			if _, err := ct.Process(parsers[i%flows], nil); err != nil {
				t.Fatal(err)
			}
		}
		// Fill the table and let it settle before measuring.
		for i := 0; i < 2*flows; i++ {
			process(i)
		}
		k := 0
		return func() {
			k++
			process(k)
		}, 1
	}
}
