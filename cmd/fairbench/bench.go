package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/runner"
	"fairbench/internal/sim"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// Performance baseline (-bench-json): the ROADMAP asks for a perf
// trajectory across PRs, which needs a first checked-in baseline.
// This file measures the pipeline's hot paths with testing.Benchmark
// (a command cannot import _test files, so the closures mirror the
// bench_test.go shapes) and emits a stable JSON document. The numbers
// are machine-dependent by nature — the artifact documents a
// trajectory on comparable hardware, it is not a determinism surface.

// benchResult is one benchmark's figures. Allocation figures are
// fractional (total over N): testing.BenchmarkResult.AllocsPerOp
// truncates to an integer, which records a path allocating 0.9 times
// per op as allocation-free.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchDoc is the emitted document.
type benchDoc struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchCases returns the hot-path benchmarks, keyed by stable names.
// Each op is one event/packet, so ops_per_sec reads as events/sec or
// packets/sec directly.
func benchCases() map[string]func(b *testing.B) {
	return map[string]func(b *testing.B){
		// Simulation kernel: schedule-and-run one event per op.
		"sim-event-throughput": func(b *testing.B) {
			s := sim.New()
			var tick func()
			n := 0
			tick = func() {
				n++
				if n < b.N {
					_ = s.At(s.Now()+1, tick)
				}
			}
			_ = s.At(1, tick)
			b.ResetTimer()
			s.RunAll()
		},
		// Header parse and validation of one prebuilt frame per op.
		"packet-parse": func(b *testing.B) {
			g, err := workload.NewGenerator(workload.Spec{Flows: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			pk, err := g.Next()
			if err != nil {
				b.Fatal(err)
			}
			p := packet.NewParser()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Parse(pk.Frame); err != nil {
					b.Fatal(err)
				}
			}
		},
		// Linear-matcher firewall processing one parsed packet per op.
		"nf-firewall-process": func(b *testing.B) {
			fw := nf.NewFirewall("bench", nf.NewLinearMatcher(
				testbed.FirewallRules(testbed.DefaultFillerRules)))
			g, err := workload.NewGenerator(workload.Spec{Flows: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			pk, err := g.Next()
			if err != nil {
				b.Fatal(err)
			}
			p := packet.NewParser()
			if err := p.Parse(pk.Frame); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.Process(p, pk.Frame); err != nil {
					b.Fatal(err)
				}
			}
		},
		// End-to-end simulated SmartNIC deployment: one offered packet
		// per op (4 Mpps CBR, so wall time per op is the simulator's
		// per-packet cost across dispatch, devices and meters).
		"testbed-smartnic-packet": func(b *testing.B) {
			d, err := testbed.SmartNICFirewall()
			if err != nil {
				b.Fatal(err)
			}
			g, err := testbed.E6Workload(1)
			if err != nil {
				b.Fatal(err)
			}
			const pps = 4e6
			b.ResetTimer()
			if _, err := d.Run(g, workload.CBR{}, pps, float64(b.N)/pps); err != nil {
				b.Fatal(err)
			}
		},
		// Observability span lifecycle: open, attribute, end (no writer).
		"obs-span": func(b *testing.B) {
			tr := obs.New(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.StartSpan(float64(i))
				sp.Stage("queue", 1e-6)
				sp.Stage("service", 2e-6)
				sp.End("bench", "forward")
			}
		},
		// Parallel sweep executor: one sweep cell per op, serial vs a
		// worker per core. The cell body is a short simulation-kernel
		// burst — the pair documents the executor's speedup trajectory on
		// the machine at hand.
		"runner-cell-serial":   benchRunnerCells(1),
		"runner-cell-parallel": benchRunnerCells(runtime.NumCPU()),
		// Bounded conntrack under table pressure: one packet per op
		// against a table a quarter the size of the flow population, so
		// every policy runs its degradation path (refusal or eviction)
		// continuously, not just its fast path.
		"nf-conntrack-evict-none":   benchConntrack(nf.EvictNone),
		"nf-conntrack-evict-random": benchConntrack(nf.EvictRandom),
		"nf-conntrack-evict-lru":    benchConntrack(nf.EvictLRU),
		// Internet-scale scenario generation: one drawn packet per op
		// from a Zipf population with SYN flood and churn active — the
		// overload experiments' per-packet generation cost.
		"workload-scenario-gen": func(b *testing.B) {
			sc, err := workload.ParseScenario(
				"zipf:flows=1000000,skew=1.1,tcp=0.3;synflood:rate=0.3;churn:life=5ms;seed:1")
			if err != nil {
				b.Fatal(err)
			}
			g, err := workload.NewScenarioGen(sc)
			if err != nil {
				b.Fatal(err)
			}
			const dt = 2.5e-7 // 4 Mpps arrival spacing drives the churn clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.NextAt(float64(i) * dt); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// benchConntrack measures the stateful firewall with the given eviction
// policy at a 4:1 flow-to-table ratio. Each op is one packet.
func benchConntrack(policy nf.EvictPolicy) func(b *testing.B) {
	return func(b *testing.B) {
		const flows, entries = 4096, 1024
		ct := nf.NewConntrackWith("bench", nf.NewLinearMatcher(
			testbed.FirewallRules(testbed.DefaultFillerRules)),
			nf.ConntrackConfig{MaxEntries: entries, Policy: policy, Seed: 1})
		g, err := workload.NewGenerator(workload.Spec{Flows: flows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		parsers := make([]*packet.Parser, flows)
		for i := range parsers {
			pk, err := g.Next()
			if err != nil {
				b.Fatal(err)
			}
			parsers[i] = packet.NewParser()
			if err := parsers[i].Parse(pk.Frame); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ct.Process(parsers[i%flows], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRunnerCells measures runner.Map over CPU-bound cells at the
// given worker count. Each op is one cell (a 2000-event simulator
// burst), so serial vs parallel ns_per_op reads directly as the
// executor's per-cell speedup.
func benchRunnerCells(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		cell := func(int) (int, error) {
			s := sim.New()
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < 2000 {
					_ = s.At(s.Now()+1, tick)
				}
			}
			_ = s.At(1, tick)
			s.RunAll()
			return n, nil
		}
		b.ResetTimer()
		if _, err := runner.Map(jobs, b.N, cell); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJSON measures every case and writes the JSON document to out.
// Human-readable progress goes to progress only: out may be stdout in a
// `fairbench -bench-json > baseline.json` pipe and must stay pure JSON.
func benchJSON(cases map[string]func(b *testing.B), out, progress io.Writer) error {
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	doc := benchDoc{
		Schema:    "fairbench-bench/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for i, name := range names {
		fmt.Fprintf(progress, "bench %d/%d %s...", i+1, len(names), name)
		r := testing.Benchmark(cases[name])
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		fmt.Fprintf(progress, " %.0f ns/op\n", ns)
		res := benchResult{
			Name:        name,
			NsPerOp:     ns,
			AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
			BytesPerOp:  float64(r.MemBytes) / float64(r.N),
		}
		if ns > 0 {
			res.OpsPerSec = 1e9 / ns
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
