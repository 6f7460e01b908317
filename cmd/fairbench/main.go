// Command fairbench evaluates a comparison spec (JSON) with the
// fair-comparison methodology and prints an explained verdict per
// baseline.
//
// Usage:
//
//	fairbench [-json] [-example] [-audit] [spec.json]
//	fairbench -bench-json [-o FILE]
//	fairbench -compare [-threshold R] [-case-thresholds ...] [-warn-only]
//	          [-max-alloc-growth N] old.json new.json
//
// With -example, the built-in §4.2 SmartNIC-firewall spec is evaluated.
// Otherwise the spec is read from the given file, or from stdin when no
// file is given.
//
// With -bench-json, fairbench instead runs the pipeline's hot-path
// benchmarks (simulation kernel, packet parse, firewall processing,
// end-to-end testbed packet, span emission, runner cells) and emits a
// JSON baseline document — to the -o file when given, otherwise to
// stdout. Progress goes to stderr only, so stdout stays pure JSON and
// `fairbench -bench-json > BENCH_baseline.json` (re)establishes the
// perf trajectory the ROADMAP tracks.
//
// With -compare, fairbench diffs two such documents and exits nonzero
// when any case regressed past its threshold — the bench-trajectory
// gate CI runs against BENCH_baseline.json. allocs_per_op and
// bytes_per_op are recorded as fractions (total over N) and gated
// strictly: they are deterministic within a Go version up to amortized
// setup, so growth past -max-alloc-growth (default 0.1 allocs/op) or
// 8 B/op fails even under -warn-only; the gate relaxes to a notice
// when the two documents were measured on different Go versions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fairbench"
)

const exampleSpec = `{
  "plane": "throughput-power",
  "proposed": {"name": "fw-smartnic", "perf": 20, "cost": 70, "scalable": true},
  "baselines": [
    {"name": "fw-1core", "perf": 10, "cost": 50, "scalable": true},
    {"name": "fw-2core", "perf": 18, "cost": 80, "scalable": true}
  ]
}`

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the text report")
	example := fs.Bool("example", false, "evaluate the built-in paper §4.2 example spec")
	audit := fs.Bool("audit", false, "treat the input as an evaluation-design audit spec and run the seven-principle checklist")
	benchJSONMode := fs.Bool("bench-json", false, "run the hot-path benchmarks and emit a BENCH baseline JSON document")
	benchOut := fs.String("o", "", "with -bench-json: write the JSON document to this file instead of stdout")
	compareMode := fs.Bool("compare", false, "diff two -bench-json documents (old.json new.json) and fail on regression")
	threshold := fs.Float64("threshold", defaultThreshold,
		"with -compare: ns_per_op ratio (new/old) above which a case counts as regressed")
	caseThresholds := fs.String("case-thresholds", "",
		`with -compare: per-case overrides as "name=ratio,name=ratio"`)
	warnOnly := fs.Bool("warn-only", false, "with -compare: report ns_per_op regressions but exit zero (alloc growth still fails)")
	maxAllocGrowth := fs.Float64("max-alloc-growth", defaultMaxAllocGrowth,
		"with -compare: allowed allocs_per_op growth per case (negative disables the alloc gate)")
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fairbench [-json] [-example] [-audit] [spec.json]")
		fmt.Fprintln(stderr, "       fairbench -bench-json [-o FILE]")
		fmt.Fprintln(stderr, "       fairbench -compare [-threshold R] [-case-thresholds name=R,...] [-warn-only] [-max-alloc-growth N] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchJSONMode && *compareMode {
		return fmt.Errorf("-bench-json and -compare are mutually exclusive")
	}

	if *benchJSONMode {
		if *example || *audit || fs.NArg() > 0 {
			return fmt.Errorf("-bench-json takes no spec input")
		}
		out := stdout
		if *benchOut != "" {
			f, err := os.Create(*benchOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return benchJSON(benchCases(), out, stderr)
	}

	if *compareMode {
		if *example || *audit {
			return fmt.Errorf("-compare takes two bench JSON files, not spec input")
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two arguments: old.json new.json")
		}
		perCase, err := parseCaseThresholds(*caseThresholds)
		if err != nil {
			return err
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1), compareOptions{
			Threshold:      *threshold,
			CaseThresholds: perCase,
			WarnOnly:       *warnOnly,
			MaxAllocGrowth: *maxAllocGrowth,
		})
	}

	var data []byte
	var err error
	switch {
	case *example:
		data = []byte(exampleSpec)
	case fs.NArg() >= 1:
		data, err = os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		data, err = io.ReadAll(stdin)
		if err != nil {
			return err
		}
	}

	if *audit {
		design, err := fairbench.ParseAuditSpec(data)
		if err != nil {
			return err
		}
		findings := fairbench.Audit(design)
		fmt.Fprint(stdout, fairbench.AuditReport(findings))
		return nil
	}

	spec, err := fairbench.ParseSpec(data)
	if err != nil {
		return err
	}
	res, err := fairbench.EvaluateSpec(spec)
	if err != nil {
		return err
	}
	if *jsonOut {
		out, err := res.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}
	fmt.Fprint(stdout, res.Report())
	return nil
}
