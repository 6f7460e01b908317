package main

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"fairbench"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/stats"
	"fairbench/internal/telemetry"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

const (
	// trialSeconds is the simulated length of every trial.
	trialSeconds = 0.01
	// tracedTrials is how many of the first untraced trials the traced
	// run repeats, once under an obs tracer and once with tapped NFs.
	// The untraced phase always runs at least this many.
	tracedTrials = 20
	// overloadScenario is overload-ct's traffic: a million-flow Zipf
	// population with a SYN flood and short-lived flows.
	overloadScenario = "zipf:flows=1000000,skew=1.1,tcp=0.3;synflood:rate=0.3;churn:life=5ms"
)

// simWorkload is one traffic mix offered to one deployment, one trial
// after another. Every trial builds a fresh deployment and generator
// (RFC 2544 trials are independent) seeded fairbench.TrialSeed(seed, k).
type simWorkload struct {
	name string
	// trials is the nominal trial count: the length of the golden file
	// and the scale of setup_s.
	trials  int
	pps     float64
	arrival workload.Arrival
	// public builds the deployment with the testbed's exported
	// constructor, as users do.
	public func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error)
	// mirror is the same deployment as a Config assembled from the
	// exported testbed.Scenario* parameters, so the traced run can wrap
	// its network functions. Results must match public's exactly.
	mirror func(seed uint64) testbed.Config
	// scenario is the overload spec; empty offers testbed.E6Workload.
	scenario string
}

var simWorkloads = []*simWorkload{
	{
		name: "smartnic-e6", trials: 200, pps: 4e6, arrival: workload.CBR{},
		public: func(uint64) (*testbed.Deployment, []measure.StateProbe, error) {
			d, err := testbed.SmartNICFirewall()
			return d, nil, err
		},
		mirror: func(uint64) testbed.Config {
			snic := testbed.ScenarioSmartNIC
			return testbed.Config{
				Name: "fw-smartnic", Cores: 1, CoreCfg: testbed.ScenarioCore,
				ChassisWatts: testbed.ScenarioChassisWatts, SmartNIC: &snic, NewNF: firewall,
			}
		},
	},
	{
		name: "host-e6", trials: 200, pps: 4e6, arrival: workload.CBR{},
		public: func(uint64) (*testbed.Deployment, []measure.StateProbe, error) {
			d, err := testbed.BaselineFirewall(2)
			return d, nil, err
		},
		mirror: func(uint64) testbed.Config {
			return testbed.Config{
				Name: "fw-host-2core", Cores: 2, CoreCfg: testbed.ScenarioCore,
				ChassisWatts: testbed.ScenarioChassisWatts, NICWatts: testbed.ScenarioNICWatts, NewNF: firewall,
			}
		},
	},
	{
		name: "overload-ct", trials: 120, pps: 6e6, arrival: workload.Poisson{}, scenario: overloadScenario,
		public: func(seed uint64) (*testbed.Deployment, []measure.StateProbe, error) {
			return testbed.StatePressureHost("fw-host-2core-ct", 2, conntrackConfig(seed))
		},
		mirror: func(seed uint64) testbed.Config {
			ct := conntrackConfig(seed)
			rules := testbed.FirewallRules(testbed.DefaultFillerRules)
			return testbed.Config{
				Name: "fw-host-2core-ct", Cores: 2, CoreCfg: testbed.ScenarioCore,
				ChassisWatts: testbed.ScenarioChassisWatts, NICWatts: testbed.ScenarioNICWatts,
				NewNF: func(core int) (nf.Func, error) {
					cfg := ct
					cfg.Seed = ct.Seed + uint64(core)
					return nf.NewConntrackWith(fmt.Sprintf("ct-core%d", core), nf.NewLinearMatcher(rules), cfg), nil
				},
			}
		},
	},
}

// firewall is the per-core NF of the §4.2 deployments.
func firewall(core int) (nf.Func, error) {
	rules := testbed.FirewallRules(testbed.DefaultFillerRules)
	return nf.NewFirewall(fmt.Sprintf("fw-core%d", core), nf.NewLinearMatcher(rules)), nil
}

// conntrackConfig is overload-ct's connection table: 4096 entries per
// core, LRU eviction, SYN cookies on.
func conntrackConfig(seed uint64) nf.ConntrackConfig {
	return nf.ConntrackConfig{MaxEntries: 4096, Policy: nf.EvictLRU, SYNCookies: true, Seed: seed}
}

// trial is one built deployment with its traffic, ready to run once.
type trial struct {
	d   *testbed.Deployment
	gen *workload.Generator
	sg  *workload.ScenarioGen
	sm  *measure.StateMeter
}

// build assembles trial seed. With a tap it uses the mirrored Config
// and wraps every core's NF; otherwise the public constructor.
func (w *simWorkload) build(seed uint64, tp *tap) (*trial, error) {
	t := &trial{}
	var probes []measure.StateProbe
	var err error
	if tp == nil {
		t.d, probes, err = w.public(seed)
	} else {
		cfg := w.mirror(seed)
		cfg.NewNF = tp.wrap(cfg.NewNF)
		t.d, err = testbed.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if w.scenario == "" {
		t.gen, err = testbed.E6Workload(seed)
		return t, err
	}
	sc, err := workload.ParseScenario(w.scenario)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	if t.sg, err = workload.NewScenarioGen(sc); err != nil {
		return nil, err
	}
	t.sm = measure.NewStateMeter()
	for _, p := range probes {
		t.sm.AddProbe(p)
	}
	return t, nil
}

// run offers the trial's traffic for trialSeconds of simulated time.
func (w *simWorkload) run(t *trial) (testbed.Result, error) {
	if t.sg != nil {
		return t.d.RunScenario(t.sg, w.arrival, w.pps, trialSeconds, t.sm)
	}
	return t.d.Run(t.gen, w.arrival, w.pps, trialSeconds)
}

// next draws the packet the deployment would be offered at simulated
// time at (the plain generator ignores the time).
func (t *trial) next(at float64) (workload.Pkt, error) {
	if t.sg != nil {
		pk, _, err := t.sg.NextAt(at)
		return pk, err
	}
	return t.gen.Next()
}

// sample is what one trial measured. Counters are read right after the
// run so that no deployment outlives its trial.
type sample struct {
	res    testbed.Result
	err    error
	digest string
	// setupNs is the build time and runNs, mallocs and bytes cover Run;
	// scale converts both CPU times to reference time (calibrate).
	setupNs, runNs, scale float64
	mallocs, bytes        uint64
	// rss is the resident set right after Run, in MiB.
	rss      float64
	fastpath uint64
	ct       nf.ConntrackStats
}

// lost is the trial's overload loss in packets.
func (s sample) lost() uint64 {
	return uint64(math.Round(s.res.LossFraction * float64(s.res.Offered.Packets)))
}

// trialOnce builds and runs trial k, with an optional tracer or tap.
func (w *simWorkload) trialOnce(base uint64, k int, tp *tap, tr *obs.Tracer, sp *spans, parent int) (sample, error) {
	seed := fairbench.TrialSeed(base, k)
	id := sp.begin("trial", parent, k)
	defer sp.end(id)
	cid := sp.begin("calibrate", id, k)
	scale := calibrate()
	sp.end(cid)
	sid := sp.begin("setup", id, k)
	start := cpuNs()
	t, err := w.build(seed, tp)
	setupNs := cpuNs() - start
	sp.end(sid)
	if err != nil {
		return sample{}, fmt.Errorf("%s: building trial %d: %w", w.name, k, err)
	}
	t.d.Observe(tr, 0)
	s := sample{setupNs: setupNs, scale: scale}
	rid := sp.begin("run", id, k)
	s.runNs, s.mallocs, s.bytes = cost(func() { s.res, s.err = w.run(t) })
	sp.end(rid)
	if s.rss, err = rssMiB(); err != nil {
		return sample{}, err
	}
	s.digest = digest(s.res)
	if sn := t.d.SmartNIC(); sn != nil {
		s.fastpath = sn.Offloaded
	}
	s.ct = testbed.ConntrackStatsOf(t.d)
	return s, nil
}

// checks lists the invariants trial k violated: every check holds at
// any seed except the golden digest, which is pinned at seed 1.
func (s sample) checks(k int, golden []string) []string {
	if s.err != nil {
		return []string{"run: " + s.err.Error()}
	}
	r := s.res
	var bad []string
	if r.Processed.Packets+s.lost() > r.Offered.Packets {
		bad = append(bad, fmt.Sprintf("processed %d + lost %d > offered %d", r.Processed.Packets, s.lost(), r.Offered.Packets))
	}
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"latency mean", r.LatencyMeanUs}, {"latency p50", r.LatencyP50Us}, {"latency p99", r.LatencyP99Us},
		{"avg power", r.AvgPowerWatts}, {"provisioned power", r.ProvisionedPowerWatts},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			bad = append(bad, fmt.Sprintf("%s is %v", v.name, v.v))
		}
	}
	if k < len(golden) && golden[k] != s.digest {
		bad = append(bad, fmt.Sprintf("result digest %s, golden %s", s.digest, golden[k]))
	}
	return bad
}

// bench runs the untraced phase, which alone produces the end-to-end
// metrics, and for a traced run the re-runs and replays behind the
// per-layer metrics. The simulation is single-threaded; with one P the
// collector runs on the same thread, so the process CPU time of a call
// is all the work it caused, not what was left over for a second core.
func (w *simWorkload) bench(cfg config, log io.Writer) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := &report{tally: tally{log: log}}
	var sp *spans
	if cfg.trace {
		sp = newSpans()
	}
	phase := sp.begin("untraced", 0, -1)
	var base []sample
	start := telemetry.Wall.Now()
	for k := 0; ; k++ {
		if cfg.trials > 0 && k >= cfg.trials ||
			cfg.trials == 0 && k >= tracedTrials && since(start) >= cfg.seconds*1e9 {
			break
		}
		s, err := w.trialOnce(cfg.seed, k, nil, nil, sp, phase)
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("%s trial %d", w.name, k), s.checks(k, cfg.golden)...)
		base = append(base, s)
		rep.digests = append(rep.digests, s.digest)
	}
	sp.end(phase)
	smoothScales(base)

	var setup, runs, slowdown, rss []float64
	var offered, runNs, mallocs, bytes, lost, processed, fastpath float64
	var ctEvicted, ctFastPath, ctCalls float64
	for _, s := range base {
		setup = append(setup, s.setupNs*s.scale)
		slowdown = append(slowdown, 1/s.scale)
		if s.err != nil {
			continue
		}
		runs = append(runs, s.runNs*s.scale)
		rss = append(rss, s.rss)
		offered += float64(s.res.Offered.Packets)
		processed += float64(s.res.Processed.Packets)
		lost += float64(s.lost())
		runNs += s.runNs * s.scale
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
		fastpath += float64(s.fastpath)
		ctEvicted += float64(s.ct.Evicted)
		ctFastPath += float64(s.ct.FastPath)
		// Every conntrack call ends in exactly one of these outcomes.
		ctCalls += float64(s.ct.FastPath + s.ct.NewFlows + s.ct.Dropped + s.ct.CookieBypassed + s.ct.SYNCookiesSent)
	}
	setupMedian := stats.Median(setup)
	rep.endToEnd = []metric{
		{"setup_s", float64(w.trials) * setupMedian / 1e9, "s"},
		{"sim_mpps", ratio(offered, runNs) * 1e3, "Mpkt/s"},
		{"trial_ms_p50", stats.Percentile(runs, 0.5) / 1e6, "ms"},
		{"trial_ms_p90", stats.Percentile(runs, 0.9) / 1e6, "ms"},
		{"allocs_per_pkt", ratio(mallocs, offered), "allocs"},
		{"alloc_bytes_per_pkt", ratio(bytes, offered), "B"},
		{"rss_mb", stats.Median(rss), "MiB"},
	}
	rep.slowdown = stats.Median(slowdown)
	if !cfg.trace {
		return rep, nil
	}

	nsPerPkt, allocsPerPkt := ratio(runNs, offered), ratio(mallocs, offered)
	lad, err := w.ladder(cfg, base, nsPerPkt, allocsPerPkt, rep, sp)
	if err != nil {
		return nil, err
	}
	sumNs, sumAllocs := lad.sum()
	lad.print(log, w.name, nsPerPkt, allocsPerPkt)
	rep.perLayer = []metric{
		{"sim.events_per_pkt", lad.sim.calls, "events/pkt"},
		{"sim.ns_per_event", lad.sim.ns, "ns"},
		{"sim.allocs_per_event", lad.sim.allocs, "allocs"},
		{"workload.ns_per_pkt", lad.workload.ns, "ns"},
		{"workload.allocs_per_pkt", lad.workload.allocs, "allocs"},
		{"packet.parses_per_pkt", lad.parse.calls, "parses/pkt"},
		{"packet.ns_per_parse", lad.parse.ns, "ns"},
		{"nf.calls_per_pkt", lad.nf.calls, "calls/pkt"},
		{"nf.ns_per_call", lad.nf.ns, "ns"},
		{"nf.allocs_per_call", lad.nf.allocs, "allocs"},
		{"nf.ct_evictions_per_pkt", ratio(ctEvicted, offered), "evictions/pkt"},
		{"nf.ct_fastpath_frac", ratio(ctFastPath, ctCalls), "fraction"},
		{"hw.fastpath_frac", ratio(fastpath, offered), "fraction"},
		{"hw.loss_frac", ratio(lost, offered), "fraction"},
		{"hw.ns_per_submit", lad.submit.ns, "ns"},
		{"hw.ns_per_offload", lad.offload.ns, "ns"},
		{"measure.ns_per_pkt", lad.meters.ns, "ns"},
		{"measure.allocs_per_pkt", lad.meters.allocs, "allocs"},
		{"measure.inflight_pkts", ratio(offered-processed-lost, float64(len(runs))), "pkts"},
		{"obs.ns_per_pkt", lad.obsNs, "ns"},
		{"obs.allocs_per_pkt", lad.obsAllocs, "allocs"},
		{"testbed.ns_per_pkt", nsPerPkt, "ns"},
		{"testbed.residual_ns_per_pkt", nsPerPkt - sumNs, "ns"},
		{"testbed.residual_allocs_per_pkt", allocsPerPkt - sumAllocs, "allocs"},
		{"testbed.setup_us_per_trial", setupMedian / 1e3, "us"},
	}
	return rep, sp.write(cfg.out, w.name)
}

// tap wraps each core's network function to count calls and, while
// capture is set, keep a copy of every frame (per core, in call order)
// and the cycle cost the NF charged for it — the inputs of the packet,
// nf and hw replays.
type tap struct {
	calls   uint64
	capture bool
	frames  [][][]byte
	cycles  []uint64
	// newNF is the unwrapped factory, for fresh replay instances.
	newNF func(core int) (nf.Func, error)
}

// maxCapture bounds the frames kept per core.
const maxCapture = 1 << 15

func (t *tap) wrap(newNF func(int) (nf.Func, error)) func(int) (nf.Func, error) {
	if t.capture {
		t.newNF = newNF
	}
	return func(core int) (nf.Func, error) {
		f, err := newNF(core)
		if err != nil {
			return nil, err
		}
		for len(t.frames) <= core {
			t.frames = append(t.frames, nil)
		}
		return &tapNF{Func: f, t: t, core: core}, nil
	}
}

// tapNF is the decorator tap installs through testbed.Config.NewNF.
type tapNF struct {
	nf.Func
	t    *tap
	core int
}

// Process implements nf.Func.
func (f *tapNF) Process(p *packet.Parser, frame []byte) (nf.Result, error) {
	res, err := f.Func.Process(p, frame)
	f.t.calls++
	if f.t.capture && len(f.t.frames[f.core]) < maxCapture {
		f.t.frames[f.core] = append(f.t.frames[f.core], append([]byte(nil), frame...))
		f.t.cycles = append(f.t.cycles, res.Cycles)
	}
	return res, err
}
