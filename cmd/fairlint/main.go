// Command fairlint machine-checks the determinism invariants of the
// fairbench pipeline: no wall clock, no global RNG, no map-order leaks
// into artifacts, no concurrency in event-loop packages, typed and
// %w-wrapped error sentinels — and, over a whole-program call graph, no
// nondeterminism laundered into the sim boundary through wrappers, no
// hardcoded RNG seeds, no allocations on //fairbench:hotpath paths, and
// no map order escaping through returns or struct fields into writers.
// See internal/lint for the rule catalog.
//
// Usage:
//
//	fairlint [-json] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/sim",
// "./cmd/..."); the default is ./... . Exits 1 when findings remain after
// //fairlint:allow suppression, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fairbench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	dir := fs.String("dir", "", "module root to analyze (default: nearest go.mod above the working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fairlint [-json] [-dir root] [packages...]\nrules: %v\n", lint.KnownRules())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root := *dir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "fairlint:", err)
			return 2
		}
	}

	findings, err := lint.Run(lint.Config{Dir: root, Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintln(stderr, "fairlint:", err)
		return 2
	}

	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "fairlint:", err)
			return 2
		}
	} else {
		if err := lint.WriteText(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "fairlint:", err)
			return 2
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "fairlint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, mirroring how the go tool locates the main module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s (run fairlint inside the module)", dir)
		}
		dir = parent
	}
}
