// Command fairsim runs one simulated heterogeneous deployment under a
// configurable workload and prints its measured operating point —
// throughput, latency, loss, fairness and composed power. It is the
// "run one testbed experiment" tool; fairfigs orchestrates full
// reproductions.
//
// Usage:
//
//	fairsim -system {host|smartnic|switch|fpga} [-cores N] [-pps RATE]
//	        [-seconds S] [-attack FRAC] [-poisson] [-seed N] [-search]
//	        [-profile] [-trials K] [-ci LEVEL]
//	        [-faults SPEC] [-scenario SPEC]
//	        [-record FILE -count N] [-replay FILE -stretch X]
//	        [-trace FILE [-sample-every DT] [-metrics FILE]]
//	        [-telemetry FILE] [-pprof-dir DIR]
//
// With -search, an RFC 2544 binary search for the zero-loss throughput
// replaces the single fixed-rate run. -record captures a trace and
// -replay runs one through the deployment at its recorded (optionally
// stretched) timestamps.
//
// With -profile, the run becomes a saturation-delta bottleneck profile
// of the deployment's canonical scenario: the RFC 2544 saturation
// search is repeated with each pipeline operator ablated to price the
// operator (Δ = saturation ablated − full, with bootstrap CIs over
// -trials replicates), and the full pipeline is observed below and
// above the knee to name the bottleneck device per load regime.
// Supported systems: host (1 or 2 -cores), smartnic, switch. -profile
// uses the scenario's canonical workload, so it conflicts with the
// workload and run-mode flags.
//
// With -trials K (K >= 2), the fixed-rate run or the -search is
// replicated over K independently seeded trials: the nominal
// (median-throughput) result is printed alongside per-metric bootstrap
// confidence intervals at level -ci (default 0.95). Replication applies
// to generated traffic only, so -trials conflicts with -record,
// -replay and -trace.
//
// With -faults, the run injects a deterministic fault schedule —
// device outages with failover, brownout derating, link loss,
// corruption and duplication, burst overload — and reports per-window
// availability, degradation depth and recovery time alongside the
// measurement. The spec grammar is internal/fault's, e.g.:
//
//	fairsim -system smartnic -faults 'outage:dev=smartnic,at=10ms,for=10ms'
//	fairsim -system host -faults 'brownout:dev=cores,at=0,for=20ms,factor=0.5;seed:17'
//	fairsim -system smartnic -faults 'linkloss:prob=0.02;linkcorrupt:prob=0.01;linkdup:prob=0.02'
//
// -faults composes with -trace (fault windows appear as spans in the
// trace), with -replay (faults strike the replayed traffic; burst
// clauses are ignored because replay pacing is the trace's) and with
// -trials (every trial runs under the same spec; the fault report is
// trial 0's).
//
// With -scenario, the run drives an internet-scale overload scenario —
// Zipf flow populations up to 10^7 concurrent flows, diurnal load
// curves, flash crowds, SYN-flood and amplification blends, flow churn
// — through a deployment with bounded, eviction-managed state tables,
// and reports per-class goodput vs throughput, collateral damage and
// table pressure alongside the measurement. The spec grammar is
// internal/workload's, e.g.:
//
//	fairsim -system smartnic -scenario 'zipf:flows=1000000,skew=1.1;synflood:rate=0.5;churn:life=10ms'
//	fairsim -system host -cores 2 -scenario 'flashcrowd:at=10ms,for=20ms,peak=3;seed:7'
//
// Scenario runs support host and smartnic systems (the bounded-table
// deployments). The spec owns the workload shape, so -scenario
// conflicts with -attack/-flows and with the other run modes; -poisson
// and -pps still select arrivals and offered load.
//
// With -trace, the run writes a deterministic JSONL observability trace
// (per-packet lifecycle spans with per-stage latency attribution,
// kernel progress, and — with -sample-every — periodic per-device
// utilization/queue/power samples) and prints the per-stage latency
// breakdown. -metrics additionally exports the end-of-run metrics —
// span counts per verdict and each sampled device's last utilization,
// queue depth and power (CSV, or JSONL when the file name ends in
// .jsonl).
//
// -trace records the simulation's virtual-time events and is part of
// the deterministic output; -telemetry instead records wall-clock
// telemetry about the process itself (the run span, goroutine/heap
// samples) and -pprof-dir captures CPU/heap profiles bracketing the
// run. Both compose with every run mode and change no measured output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fairbench"
	"fairbench/internal/fault"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/profile"
	"fairbench/internal/report"
	"fairbench/internal/rfc2544"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fairsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("fairsim", flag.ContinueOnError)
	system := fs.String("system", "host", "deployment: host, smartnic, switch, or fpga")
	cores := fs.Int("cores", 1, "host dataplane cores (host and switch systems)")
	pps := fs.Float64("pps", 2e6, "offered load in packets per second")
	seconds := fs.Float64("seconds", 0.05, "simulated duration per run")
	attack := fs.Float64("attack", 0.2, "fraction of traffic from the blocklisted prefix")
	flows := fs.Int("flows", 1024, "number of distinct flows")
	poisson := fs.Bool("poisson", false, "Poisson arrivals instead of constant rate")
	seed := fs.Uint64("seed", 1, "random seed (determinism: same seed, same results)")
	search := fs.Bool("search", false, "RFC 2544 throughput search instead of a fixed-rate run")
	profileFlag := fs.Bool("profile", false, "saturation-delta bottleneck profile of the deployment's canonical scenario")
	trials := fs.Int("trials", 1, "independently seeded replicate runs (>= 2 enables bootstrap CIs)")
	ci := fs.Float64("ci", stats.CILevel, "bootstrap confidence level for -trials >= 2, in (0, 1)")
	faults := fs.String("faults", "", "fault spec, e.g. 'outage:dev=smartnic,at=10ms,for=10ms;linkloss:prob=0.01'")
	scenario := fs.String("scenario", "", "overload scenario spec, e.g. 'zipf:flows=1000000,skew=1.1;synflood:rate=0.5;churn:life=10ms'")
	record := fs.String("record", "", "record a trace of the workload to this file and exit")
	count := fs.Int("count", 10000, "packets to record with -record")
	replay := fs.String("replay", "", "replay a recorded trace through the deployment instead of generating traffic")
	stretch := fs.Float64("stretch", 1, "timestamp scale for -replay (0.5 = twice as fast)")
	trace := fs.String("trace", "", "write a JSONL observability trace of the run to this file")
	sampleEvery := fs.Float64("sample-every", 0, "periodic device sampling interval in simulated seconds (requires -trace)")
	metrics := fs.String("metrics", "", "export the metrics snapshot to this file (requires -trace; .jsonl for JSONL, CSV otherwise)")
	telemetryPath := fs.String("telemetry", "", "write wall-clock telemetry (run span, runtime samples) to this JSONL file")
	pprofDir := fs.String("pprof-dir", "", "write CPU and heap profiles bracketing the run into this directory")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Wall-clock observability (distinct from -trace, which records the
	// simulation's virtual-time events): a run span, runtime samples and
	// optional profiles, none of which touch the measured output.
	if *telemetryPath != "" || *pprofDir != "" {
		finish, terr := attachTelemetry(*telemetryPath, *pprofDir)
		if terr != nil {
			return terr
		}
		defer finish(&err)
	}

	// Reject contradictory mode combinations up front: each of -record,
	// -replay and -search selects a different run mode.
	switch {
	case *record != "" && *replay != "":
		return fmt.Errorf("-record and -replay are mutually exclusive (record writes a trace, replay consumes one)")
	case *search && *replay != "":
		return fmt.Errorf("-search and -replay are mutually exclusive (the throughput search generates its own load)")
	case *search && *record != "":
		return fmt.Errorf("-search and -record are mutually exclusive")
	}
	if *trace != "" && (*search || *record != "") {
		return fmt.Errorf("-trace applies to a single measured run; it cannot be combined with -search or -record")
	}
	if *trace == "" && *sampleEvery != 0 {
		return fmt.Errorf("-sample-every requires -trace")
	}
	if *trace == "" && *metrics != "" {
		return fmt.Errorf("-metrics requires -trace")
	}
	if *sampleEvery < 0 {
		return fmt.Errorf("-sample-every must be positive, got %v", *sampleEvery)
	}

	// Replication applies to generated traffic: a replayed trace or a
	// recorded one is a single fixed artifact, and a trace file
	// documents one run.
	ciSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "ci" {
			ciSet = true
		}
	})
	if *trials < 1 {
		return fmt.Errorf("-trials must be >= 1, got %d", *trials)
	}
	if err := stats.CheckLevel(*ci); err != nil {
		return fmt.Errorf("-ci: %w", err)
	}
	if ciSet && *trials < 2 {
		return fmt.Errorf("-ci requires -trials >= 2 (one trial has no distribution to bootstrap)")
	}
	if *trials > 1 {
		switch {
		case *record != "":
			return fmt.Errorf("-trials and -record are mutually exclusive (a recorded trace is one trial)")
		case *replay != "":
			return fmt.Errorf("-trials and -replay are mutually exclusive (a replayed trace is one trial)")
		case *trace != "":
			return fmt.Errorf("-trials and -trace are mutually exclusive (a trace documents a single run)")
		}
	}

	// -faults drives a dedicated measured run: it composes with -trace,
	// -replay and -trials but not with the other run modes.
	var faultSpec fault.Spec
	if *faults != "" {
		switch {
		case *search:
			return fmt.Errorf("-faults and -search are mutually exclusive (the throughput search assumes the healthy regime)")
		case *record != "":
			return fmt.Errorf("-faults and -record are mutually exclusive (recording captures workload, not faults)")
		}
		var err error
		faultSpec, err = fault.ParseSpec(*faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}

	if *profileFlag {
		// The profiler owns its run modes and canonical workloads, so
		// every other mode or workload-shaping flag is a conflict.
		switch {
		case *search:
			return fmt.Errorf("-profile and -search are mutually exclusive (-profile runs its own saturation searches)")
		case *record != "" || *replay != "":
			return fmt.Errorf("-profile cannot be combined with -record/-replay")
		case *faults != "":
			return fmt.Errorf("-profile and -faults are mutually exclusive (the profile measures the healthy pipeline)")
		case *trace != "":
			return fmt.Errorf("-profile and -trace are mutually exclusive")
		case *scenario != "":
			return fmt.Errorf("-profile and -scenario are mutually exclusive (each owns the run's workload)")
		}
		var workloadFlags []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pps", "attack", "flows", "poisson":
				workloadFlags = append(workloadFlags, "-"+f.Name)
			}
		})
		if len(workloadFlags) > 0 {
			return fmt.Errorf("-profile uses the scenario's canonical workload; drop %s", strings.Join(workloadFlags, ", "))
		}
		name := *system
		if name == "host" {
			name = fmt.Sprintf("host-%dcore", *cores)
		}
		target, err := testbed.FirewallProfileTarget(name)
		if err != nil {
			return err
		}
		p, err := profile.Run(target, profile.Options{
			TrialSeconds: *seconds,
			Seed:         *seed,
			Trials:       *trials,
			Level:        *ci,
		})
		if err != nil {
			return err
		}
		printProfile(stdout, p)
		return nil
	}

	// -scenario drives an internet-scale overload scenario through a
	// bounded-state deployment. The spec owns the workload shape and
	// state metering is the run's observability, so the other run modes
	// and workload-shaping flags conflict.
	if *scenario != "" {
		switch {
		case *search:
			return fmt.Errorf("-scenario and -search are mutually exclusive (the scenario shapes its own offered load over time)")
		case *record != "" || *replay != "":
			return fmt.Errorf("-scenario cannot be combined with -record/-replay (the scenario generates its own traffic)")
		case *faults != "":
			return fmt.Errorf("-scenario and -faults are mutually exclusive (overload is the scenario's failure mode)")
		case *trace != "":
			return fmt.Errorf("-scenario and -trace are mutually exclusive (state metering is the scenario run's observability)")
		}
		var workloadFlags []string
		seedSet := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "attack", "flows":
				workloadFlags = append(workloadFlags, "-"+f.Name)
			case "seed":
				seedSet = true
			}
		})
		if len(workloadFlags) > 0 {
			return fmt.Errorf("the scenario spec owns the workload shape; drop %s (use zipf:flows=,attack= clauses)",
				strings.Join(workloadFlags, ", "))
		}
		return runScenario(stdout, *scenario, *system, *cores, *pps, *seconds,
			*poisson, *seed, seedSet, *trials, *ci)
	}

	mkDeployment := func() (*testbed.Deployment, error) {
		switch *system {
		case "host":
			return testbed.BaselineFirewall(*cores)
		case "smartnic":
			return testbed.SmartNICFirewall()
		case "switch":
			return testbed.SwitchFirewall(*cores)
		case "fpga":
			return testbed.FPGAFirewall(hw.FPGAConfig{})
		default:
			return nil, fmt.Errorf("unknown system %q", *system)
		}
	}
	mkGenSeeded := func(s uint64) (*workload.Generator, error) {
		return workload.NewGenerator(workload.Spec{
			Flows:          *flows,
			AttackFraction: *attack,
			Seed:           s,
		})
	}
	mkGen := func() (*workload.Generator, error) { return mkGenSeeded(*seed) }

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := mkGen()
		if err != nil {
			return err
		}
		var arrival workload.Arrival = workload.CBR{}
		if *poisson {
			arrival = workload.Poisson{}
		}
		if err := workload.Record(f, g, arrival, *pps, *count); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d packets at %.2f Mpps to %s\n", *count, *pps/1e6, *record)
		return nil
	}

	// attachTrace wires the observability tracer to d when -trace is
	// set; the returned finish writes the breakdown and metrics after a
	// successful run.
	attachTrace := func(d *testbed.Deployment) (finish func() error, err error) {
		if *trace == "" {
			return func() error { return nil }, nil
		}
		f, err := os.Create(*trace)
		if err != nil {
			return nil, err
		}
		tr := obs.New(f)
		d.Observe(tr, *sampleEvery)
		return func() error {
			if err := tr.Err(); err != nil {
				f.Close()
				return fmt.Errorf("trace: %w", err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\ntrace: %d events to %s\n", tr.Events(), *trace)
			printBreakdown(stdout, tr.Breakdown())
			if *metrics != "" {
				if err := exportMetrics(*metrics, tr); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "metrics snapshot to %s\n", *metrics)
			}
			return nil
		}, nil
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := workload.NewTraceReader(f)
		if err != nil {
			return err
		}
		defer tr.Close()
		d, err := mkDeployment()
		if err != nil {
			return err
		}
		finish, err := attachTrace(d)
		if err != nil {
			return err
		}
		if *faults != "" {
			res, rep, err := d.RunTraceWithFaults(tr, *stretch, faultSpec)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "replayed %d packets (stretch %.2f)\n", tr.Count(), *stretch)
			printFaultReport(stdout, rep)
			printResult(stdout, res)
			return finish()
		}
		res, err := d.RunTrace(tr, *stretch)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replayed %d packets (stretch %.2f)\n", tr.Count(), *stretch)
		printResult(stdout, res)
		return finish()
	}

	if *search {
		results := make([]testbed.Result, 0, *trials)
		ppsSamples := make([]float64, 0, *trials)
		for t := 0; t < *trials; t++ {
			s := fairbench.TrialSeed(*seed, t)
			res, err := rfc2544.Throughput(mkDeployment,
				func() (*workload.Generator, error) { return mkGenSeeded(s) },
				rfc2544.Opts{TrialSeconds: *seconds})
			if err != nil {
				return fmt.Errorf("trial %d (seed %d): %w", t, s, err)
			}
			if t == 0 {
				fmt.Fprintf(stdout, "RFC 2544 zero-loss throughput: %.3f Mpps (%.2f Gb/s) over %d trials\n",
					res.Pps/1e6, res.Gbps, len(res.Trials))
				printResult(stdout, res.Passing)
			}
			results = append(results, res.Passing)
			ppsSamples = append(ppsSamples, res.Pps)
		}
		if *trials > 1 {
			if err := printReplication(stdout, results, ppsSamples, *ci, *seed); err != nil {
				return err
			}
		}
		return nil
	}

	var arrival workload.Arrival = workload.CBR{}
	if *poisson {
		arrival = workload.Poisson{}
	}

	// runOnce measures one trial; with -faults it runs under the spec
	// and prints the fault report for trial 0.
	runOnce := func(d *testbed.Deployment, g *workload.Generator, t int) (testbed.Result, error) {
		if *faults == "" {
			return d.Run(g, arrival, *pps, *seconds)
		}
		res, rep, err := d.RunWithFaults(g, arrival, *pps, *seconds, faultSpec)
		if err == nil && t == 0 {
			printFaultReport(stdout, rep)
		}
		return res, err
	}

	if *trials > 1 {
		results := make([]testbed.Result, 0, *trials)
		for t := 0; t < *trials; t++ {
			s := fairbench.TrialSeed(*seed, t)
			d, err := mkDeployment()
			if err != nil {
				return err
			}
			g, err := mkGenSeeded(s)
			if err != nil {
				return err
			}
			res, err := runOnce(d, g, t)
			if err != nil {
				return fmt.Errorf("trial %d (seed %d): %w", t, s, err)
			}
			if t == 0 {
				printResult(stdout, res)
			}
			results = append(results, res)
		}
		return printReplication(stdout, results, nil, *ci, *seed)
	}

	d, err := mkDeployment()
	if err != nil {
		return err
	}
	g, err := mkGen()
	if err != nil {
		return err
	}
	finish, err := attachTrace(d)
	if err != nil {
		return err
	}
	res, err := runOnce(d, g, 0)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	return finish()
}

// runScenario drives an overload scenario through a bounded-state
// deployment and prints the measurement with its state-pressure
// accounting. trials >= 2 replicates over independently seeded runs.
// An explicitly-set -seed overrides the spec's seed clause.
func runScenario(w io.Writer, spec, system string, cores int, pps, seconds float64,
	poisson bool, seed uint64, seedSet bool, trials int, ci float64) error {
	sc, err := workload.ParseScenario(spec)
	if err != nil {
		return fmt.Errorf("-scenario: %w", err)
	}
	if seedSet {
		sc.Seed = seed
	}
	mk := func(s uint64) (*testbed.Deployment, []measure.StateProbe, error) {
		// The production conntrack posture: a bounded table with LRU
		// eviction and SYN cookies (fairfigs' state-pressure experiment
		// sweeps the alternatives).
		ct := nf.ConntrackConfig{MaxEntries: 1 << 16, Policy: nf.EvictLRU, SYNCookies: true, Seed: s}
		switch system {
		case "host":
			return testbed.StatePressureHost(fmt.Sprintf("fw-host-%dcore-ct", cores), cores, ct)
		case "smartnic":
			return testbed.StatePressureSmartNIC(testbed.ScenarioSmartNIC, ct)
		default:
			return nil, nil, fmt.Errorf("-scenario supports the bounded-table host and smartnic systems, not %q", system)
		}
	}
	var arrival workload.Arrival = workload.CBR{}
	if poisson {
		arrival = workload.Poisson{}
	}
	results := make([]testbed.Result, 0, trials)
	for t := 0; t < trials; t++ {
		s := fairbench.TrialSeed(sc.Seed, t)
		d, probes, err := mk(s)
		if err != nil {
			return err
		}
		trial := sc
		trial.Seed = s
		sg, err := workload.NewScenarioGen(trial)
		if err != nil {
			return err
		}
		sm := measure.NewStateMeter()
		for _, p := range probes {
			sm.AddProbe(p)
		}
		res, err := d.RunScenario(sg, arrival, pps, seconds, sm)
		if err != nil {
			return fmt.Errorf("trial %d (seed %d): %w", t, s, err)
		}
		if t == 0 {
			fmt.Fprintf(w, "scenario: %s\n", trial.String())
			printResult(w, res)
			sum, err := sm.Summarize(seconds)
			if err != nil {
				return err
			}
			printStatePressure(w, sum, testbed.ConntrackStatsOf(d))
		}
		results = append(results, res)
	}
	if trials > 1 {
		return printReplication(w, results, nil, ci, sc.Seed)
	}
	return nil
}

// printStatePressure renders the per-class goodput accounting, the
// state-table pressure and the conntrack attribution of a scenario run.
func printStatePressure(w io.Writer, s measure.StateSummary, ct nf.ConntrackStats) {
	fmt.Fprintf(w, "\nstate pressure: %s\n", s)
	t := report.NewTable("Per-class delivery", "Class", "Offered", "Delivered", "Dropped", "Evict losses")
	for _, c := range s.Classes {
		name := c.Class
		if name == "" {
			name = "legit"
		}
		t.AddRowf("%s|%d|%d|%d|%d", name, c.Offered, c.Delivered, c.Dropped, c.Lost)
	}
	fmt.Fprint(w, t.Text())
	fmt.Fprintf(w, "conntrack: %d new flows, %d fast path, %d overflow drops, %d evicted (%d established), %d cookies sent, %d validated\n",
		ct.NewFlows, ct.FastPath, ct.OverflowDrops, ct.Evicted, ct.EvictedEstablished,
		ct.SYNCookiesSent, ct.CookieBypassed)
}

// printProfile renders a saturation-delta profile: the saturation
// point, the per-operator costs and the bottleneck per load regime.
func printProfile(w io.Writer, p profile.Profile) {
	fmt.Fprintf(w, "%s saturates at %.3f Mpps (%.2f Gb/s), CI [%.3f, %.3f] Mpps over %d trial(s)\n",
		p.System, p.SaturationPps/1e6, p.SaturationGbps,
		p.SaturationCI.Lo/1e6, p.SaturationCI.Hi/1e6, p.Trials)
	ops := report.NewTable("Per-operator saturation deltas (Δ = ablated − full)",
		"Operator", "Ablated (Mpps)", "Δ (Mpps)", "CI (Mpps)", "Share")
	for _, op := range p.Operators {
		ops.AddRowf("%s|%.3f|%+.3f|[%.3f, %.3f]|%+.1f%%",
			op.Operator, op.AblatedPps/1e6, op.DeltaPps/1e6,
			op.DeltaCI.Lo/1e6, op.DeltaCI.Hi/1e6, op.Share*100)
	}
	fmt.Fprint(w, ops.Text())
	bt := report.NewTable("Bottleneck per load regime",
		"Regime", "Load", "Offered (Mpps)", "Loss", "Bottleneck", "Mean util", "Max queue")
	for _, reg := range p.Regimes {
		bt.AddRowf("%s|%.0f%%|%.3f|%.2f%%|%s|%.0f%%|%d",
			reg.Regime, reg.LoadFraction*100, reg.OfferedPps/1e6,
			reg.LossFraction*100, reg.Device, reg.Utilization*100, reg.MaxQueue)
	}
	fmt.Fprint(w, bt.Text())
}

// printFaultReport renders the injected fault schedule and the
// availability figures of a faulted run.
func printFaultReport(w io.Writer, rep testbed.FaultReport) {
	t := report.NewTable(fmt.Sprintf("Injected faults: %s", rep.Spec),
		"Window", "Kind", "Target", "Start (ms)", "End (ms)", "Severity")
	for i, win := range rep.Windows {
		sev := "-"
		if win.Severity != 0 {
			sev = fmt.Sprintf("%g", win.Severity)
		}
		t.AddRowf("%d|%s|%s|%.3f|%.3f|%s",
			i, win.Kind, win.Target, win.Start*1e3, win.End*1e3, sev)
	}
	fmt.Fprint(w, t.Text())
	if rep.LinkDropped > 0 || rep.LinkCorrupted > 0 || rep.LinkDuplicated > 0 {
		fmt.Fprintf(w, "link faults: %d dropped, %d corrupted", rep.LinkDropped, rep.LinkCorrupted)
		if rep.LinkDuplicated > 0 {
			fmt.Fprintf(w, ", %d duplicated", rep.LinkDuplicated)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s\n", rep.Avail)
}

// printBreakdown renders the per-stage latency attribution of a traced
// run.
func printBreakdown(w io.Writer, bd *obs.Breakdown) {
	stages := bd.Stages()
	if len(stages) == 0 {
		return
	}
	t := report.NewTable(fmt.Sprintf("Per-stage latency breakdown (%d spans)", bd.Spans()),
		"Stage", "Count", "Mean (µs)", "Total (ms)", "Share")
	total := bd.TotalSeconds()
	for _, st := range stages {
		share := 0.0
		if total > 0 {
			share = st.TotalSeconds / total
		}
		t.AddRowf("%s|%d|%.3f|%.3f|%.1f%%",
			st.Name, st.Count, st.MeanSeconds()*1e6, st.TotalSeconds*1e3, share*100)
	}
	fmt.Fprint(w, t.Text())
}

// exportMetrics writes the tracer's end-of-run metrics: JSONL when the
// path ends in .jsonl, CSV otherwise.
func exportMetrics(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteMetrics(f, strings.HasSuffix(path, ".jsonl")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(w io.Writer, res testbed.Result) {
	t := report.NewTable(fmt.Sprintf("%s (%v simulated)", res.Name, res.Duration), "Metric", "Value")
	t.AddRowf("offered|%s", res.Offered)
	t.AddRowf("processed|%s", res.Processed)
	t.AddRowf("forwarded|%s", res.Forwarded)
	t.AddRowf("loss|%.4f%%", res.LossFraction*100)
	t.AddRowf("latency p50|%.2f µs", res.LatencyP50Us)
	t.AddRowf("latency p99|%.2f µs", res.LatencyP99Us)
	t.AddRowf("Jain fairness index|%.4f", res.JFI)
	t.AddRowf("power (provisioned)|%.1f W", res.ProvisionedPowerWatts)
	t.AddRowf("power (average)|%.1f W", res.AvgPowerWatts)
	fmt.Fprint(w, t.Text())
	if len(res.PerDeviceAvgWatts) > 0 {
		dt := report.NewTable("Per-device average power", "Device", "Watts")
		for _, name := range sortedKeys(res.PerDeviceAvgWatts) {
			dt.AddRowf("%s|%.2f", name, res.PerDeviceAvgWatts[name])
		}
		fmt.Fprint(w, "\n"+dt.Text())
	}
}

// printReplication renders per-metric bootstrap confidence intervals
// over replicated runs. The first result shown above it is the trial-0
// (base seed) run; the table quantifies how much the remaining seeds
// moved each metric. ppsSamples optionally carries the RFC 2544 search
// rates (nil for fixed-rate runs). Deterministic in seed.
func printReplication(w io.Writer, results []testbed.Result, ppsSamples []float64, level float64, seed uint64) error {
	collect := func(get func(testbed.Result) float64) []float64 {
		out := make([]float64, len(results))
		for i, r := range results {
			out[i] = get(r)
		}
		return out
	}
	rows := []struct {
		name    string
		samples []float64
	}{
		{"throughput (Gb/s)", collect(func(r testbed.Result) float64 { return r.Processed.GbPerSecond() })},
		{"latency p50 (µs)", collect(func(r testbed.Result) float64 { return r.LatencyP50Us })},
		{"latency p99 (µs)", collect(func(r testbed.Result) float64 { return r.LatencyP99Us })},
		{"avg power (W)", collect(func(r testbed.Result) float64 { return r.AvgPowerWatts })},
	}
	if ppsSamples != nil {
		mpps := make([]float64, len(ppsSamples))
		for i, v := range ppsSamples {
			mpps[i] = v / 1e6
		}
		rows = append([]struct {
			name    string
			samples []float64
		}{{"zero-loss rate (Mpps)", mpps}}, rows...)
	}
	t := report.NewTable(
		fmt.Sprintf("Replication over %d seeded trials (%.0f%% bootstrap CIs, %d resamples)",
			len(results), level*100, stats.Resamples),
		"Metric", "Median", "CI", "Half-width", "CV")
	for i, row := range rows {
		interval, err := stats.MedianCI(row.samples, level, stats.MixSeed(seed, uint64(i)+100))
		if err != nil {
			return err
		}
		t.AddRowf("%s|%.4f|%s|%.4f|%.4f",
			row.name, stats.Median(row.samples), interval, interval.HalfWidth(), stats.CV(row.samples))
	}
	fmt.Fprint(w, "\n"+t.Text())
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
