// Command fairbench evaluates a comparison spec (JSON) with the
// fair-comparison methodology and prints an explained verdict per
// baseline.
//
// Usage:
//
//	fairbench [-json] [-example] [-audit] [spec.json]
//
// With -example, the built-in §4.2 SmartNIC-firewall spec is evaluated.
// Otherwise the spec is read from the given file, or from stdin when no
// file is given. With -audit, the input is an evaluation-design audit
// spec and the seven-principle checklist is printed as text. Inputs that
// would be silently dropped are errors: -example with a spec file, -audit
// with -json, and more than one spec file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	os.Exit(exitCode(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// exitCode runs the command and returns its exit status, printing a
// failure on stderr with exactly one "fairbench: " prefix: the library's
// errors carry it already, the command's own do not.
func exitCode(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	err := run(args, stdin, stdout, stderr)
	if err == nil {
		return 0
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "fairbench: ") {
		msg = "fairbench: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 1
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the text report")
	example := fs.Bool("example", false, "evaluate the built-in paper §4.2 example spec")
	audit := fs.Bool("audit", false, "treat the input as an evaluation-design audit spec and run the seven-principle checklist")
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fairbench [-json] [-example] [-audit] [spec.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 1:
		return fmt.Errorf("one spec file at most, got %s", strings.Join(fs.Args(), " and "))
	case *example && fs.NArg() == 1:
		return fmt.Errorf("-example and spec file %s are mutually exclusive", fs.Arg(0))
	case *audit && *jsonOut:
		return fmt.Errorf("-audit and -json are mutually exclusive: the audit report is text only")
	}

	var data []byte
	var err error
	switch {
	case *example:
		data = []byte(exampleSpec)
	case fs.NArg() == 1:
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
