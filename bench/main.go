// Command bench is fairbench's end-to-end and per-layer benchmark. It
// runs one workload, checks every output it produces, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object with the counts of attempted and failed operations and
// either the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1).
//
// Usage, from bench/ (a module of its own):
//
//	go run . -workload smartnic-e6 -seed 1 [-seconds 30] [-trace 1] [-out DIR]
//
// or from the repository root, building into .bench_build/:
//
//	bash bench/run.sh --workload smartnic-e6 --seed 1 --seconds 30 --trace 1
//
// The exit code is nonzero only when the benchmark itself cannot run;
// failed output checks are counted in the result and named on stderr.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config selects one benchmark run.
type config struct {
	workload string
	seed     uint64
	// seconds is how long the untraced phase keeps starting trials.
	seconds float64
	// trials, when positive, fixes the trial count instead (tests and
	// golden regeneration).
	trials int
	trace  bool
	out    string
	// golden holds the expected per-trial Result digests (simulation
	// workloads) or "sha256  name" artifact lines (quick-sweep); nil
	// skips the golden comparison.
	golden []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 30, "how long the untraced phase starts new trials (the quick sweep always runs once)")
	trace := fs.Int("trace", 1, "1 adds the traced re-runs and layer replays and prints per-layer metrics in the JSON line; 0 prints end-to-end metrics")
	out := fs.String("out", "", "write the benchmark's spans to DIR/trace-<workload>.jsonl (traced runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, out: *out}
	if *seed == 1 && runtime.GOOS == "linux" && runtime.GOARCH == "amd64" {
		g, err := loadGolden(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		cfg.golden = g
	}
	rep, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// workloadNames lists every workload the command accepts.
func workloadNames() []string {
	var out []string
	for _, w := range simWorkloads {
		out = append(out, w.name)
	}
	return append(out, quickSweep)
}

// runWorkload dispatches to the simulation or sweep benchmark.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	if cfg.workload == quickSweep {
		return runSweep(cfg, log)
	}
	for _, w := range simWorkloads {
		if w.name == cfg.workload {
			return w.bench(cfg, log)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// metric is one named, unit-bearing measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one run measured and how many of its operations
// failed their checks.
type report struct {
	tally
	endToEnd, perLayer []metric
	// slowdown is the median of the reference loop's CPU time over
	// refNominalNs: multiply a reported time by it for CPU time.
	slowdown float64
	// digests are the untraced trials' Result digests, or the sweep's
	// "sha256  name" artifact lines; golden regeneration writes them.
	digests []string
}

// tally counts attempted operations (a trial, or a sweep cell) and the
// ones that failed a check, naming each failure on log.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// record counts one operation; it failed when any reason is non-empty.
func (t *tally) record(op string, reasons ...string) {
	t.attempted++
	bad := false
	for _, r := range reasons {
		if r != "" {
			fmt.Fprintf(t.log, "FAIL %s: %s\n", op, r)
			bad = true
		}
	}
	if bad {
		t.failed++
	}
}

// print writes every metric as a table, then the JSON result line. The
// JSON carries the per-layer metrics of a traced run, otherwise the
// end-to-end ones.
func (r *report) print(w io.Writer, traced bool) error {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-40s %14d ops\n", "attempted", r.attempted)
	fmt.Fprintf(w, "%-40s %14.6g fraction\n", "fail_frac", frac)
	if r.slowdown > 0 {
		fmt.Fprintf(w, "%-40s %14.6g x (times below are reference times)\n", "machine_slowdown", r.slowdown)
	}
	for _, m := range append(append([]metric(nil), r.endToEnd...), r.perLayer...) {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.name, m.value)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
