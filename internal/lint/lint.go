// Package lint implements fairlint, a repo-specific static-analysis pass
// that machine-checks the determinism invariants the fairbench pipeline
// rests on. Every verdict this reproduction emits is only credible because
// the sim → testbed → verdict pipeline replays byte-identically from a
// seed; fairlint enforces the conventions that keep it that way.
//
// Five rules inspect one type-checked package at a time:
//
//   - wallclock:  no time.Now/Since/Sleep outside allowlisted packages —
//     virtual time must come from the sim clock.
//   - globalrand: no global math/rand functions and no rand.New with an
//     opaque source — randomness flows through seeded internal/stats RNGs.
//   - maporder:   no map iteration that writes to an io.Writer or escapes
//     through an unsorted append — map order would leak into artifacts.
//   - simconc:    no goroutines, channels, or sync primitives inside the
//     single-threaded deterministic sim-boundary packages.
//   - errtype:    exported Err* variables are stable sentinels built with
//     errors.New (or a dedicated error type), and fmt.Errorf chains that
//     mention one wrap it with %w.
//
// Four rules walk an interprocedural call graph over the whole module,
// closing the loopholes a per-package check leaves open (a one-line
// wrapper in an allowed package launders time.Now into the sim):
//
//   - taintreach: wall-clock reads, global math/rand draws, and
//     goroutine spawns reachable *transitively* from any function in the
//     sim boundary are findings, with the full call chain as the hint.
//   - seedprov: every RNG construction (rand.New/NewSource family,
//     sim.NewRNG, stats.NewRNG) must take a seed that dataflows from a
//     parameter — a Spec field, a TrialSeed, an operator flag — never a
//     bare literal or package variable.
//   - hotalloc: functions annotated //fairbench:hotpath, and everything
//     they reach inside the hot-path scope, must satisfy an AST-level
//     allocation model (no make, growing append, interface boxing,
//     capturing closures, or string concatenation in loops). Error-return
//     and panic paths are exempt.
//   - orderflow: map iteration order that escapes a function through a
//     return value or a struct field and reaches a writer in another
//     function — the flow maporder's intra-function check cannot see.
//
// Findings can be suppressed with a `//fairlint:allow <rule> <reason>`
// comment on the offending line or the line above; an allow with no
// reason, an unknown rule, or one that suppresses nothing is itself a
// finding (rule "allow").
//
// The implementation is pure standard library (go/parser, go/ast,
// go/types) — no golang.org/x/tools dependency.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"slices"
	"sort"
	"strings"
)

// Rule identifiers, stable across releases; these are the names accepted
// by //fairlint:allow comments.
const (
	RuleWallclock  = "wallclock"
	RuleGlobalRand = "globalrand"
	RuleMapOrder   = "maporder"
	RuleSimConc    = "simconc"
	RuleErrType    = "errtype"
	RuleTaintReach = "taintreach"
	RuleSeedProv   = "seedprov"
	RuleHotAlloc   = "hotalloc"
	RuleOrderFlow  = "orderflow"
	// RuleAllow reports defective suppression comments. It is emitted by
	// the allow machinery itself and cannot be suppressed.
	RuleAllow = "allow"
)

// reportFunc is how analyzers surface findings; Run wires it to the
// finding accumulator.
type reportFunc func(pos token.Pos, rule, msg, hint string)

// rules is the registry: every suppressible rule with its analyzer,
// either per-package (pkg) or whole-program (prog).
var rules = []struct {
	name string
	pkg  func(*pass)
	prog func(*graph, reportFunc)
}{
	{name: RuleWallclock, pkg: wallclock},
	{name: RuleGlobalRand, pkg: globalrand},
	{name: RuleMapOrder, pkg: maporder},
	{name: RuleSimConc, pkg: simconc},
	{name: RuleErrType, pkg: errtype},
	{name: RuleTaintReach, prog: taintReach},
	{name: RuleSeedProv, prog: seedProv},
	{name: RuleHotAlloc, prog: hotAlloc},
	{name: RuleOrderFlow, prog: orderFlow},
}

// KnownRules returns the suppressible rule names in sorted order.
func KnownRules() []string {
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// Finding is one determinism-invariant violation. File is relative to the
// analyzed module root (slash-separated) so output is machine-independent
// and byte-identical across runs.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
	Hint string `json:"hint,omitempty"`
}

// String renders a finding as "file:line:col: rule: msg (fix: hint)".
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Config selects what to analyze.
type Config struct {
	// Dir is the root of the tree to analyze (the module root). Required.
	Dir string
	// Patterns are package patterns relative to Dir: "./..." (everything),
	// "./sub/..." (a subtree), or "./sub" (one package). Defaults to ./...
	Patterns []string
}

// wallclockAllow exempts the experiment runner, whose deadline/retry
// machinery legitimately needs wall time, and the telemetry package,
// whose entire purpose is recording wall-clock execution history outside
// the determinism surface. Command binaries are deliberately NOT
// allowlisted: each wall-clock use there must carry a //fairlint:allow
// with a recorded reason.
var wallclockAllow = []string{"internal/runner", "internal/telemetry"}

// simBoundary is the determinism boundary: the packages whose code runs
// inside seeded, replayed simulations. Their event loops must stay
// single-threaded (simconc), and no function in them may transitively
// reach nondeterminism (taintreach).
var simBoundary = []string{
	"internal/sim",
	"internal/hw",
	"internal/measure",
	"internal/fault",
	"internal/nf",
	"internal/workload",
}

// hotpathScope is where hotalloc findings propagate from an annotated
// root: the sim boundary plus internal/packet, whose parser is on the
// per-packet fast path of every deployment, and internal/testbed, whose
// dispatch path carries every simulated packet through the device models.
var hotpathScope = append(append([]string(nil), simBoundary...), "internal/packet", "internal/testbed")

// Run loads every package matched by cfg.Patterns under cfg.Dir once and
// analyzes them. The process working directory must be inside a Go
// module for module-internal imports to resolve (the stdlib source
// importer shells out to the go command for resolution).
func Run(cfg Config) ([]Finding, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	pkgs, fset, err := load(&cfg)
	if err != nil {
		return nil, err
	}
	return analyze(buildGraph(cfg.Dir, pkgs, fset)), nil
}

// analyze runs the per-package rules on each of g's packages and the
// whole-program rules on g, applies //fairlint:allow suppressions, and
// returns findings sorted by (file, line, col, rule, msg).
func analyze(g *graph) []Finding {
	var findings []Finding
	report := func(pos token.Pos, rule, msg, hint string) {
		position := g.fset.Position(pos)
		findings = append(findings, Finding{
			File: relFile(g.root, position.Filename),
			Line: position.Line,
			Col:  position.Column,
			Rule: rule,
			Msg:  msg,
			Hint: hint,
		})
	}
	var allows []*allowDirective
	for _, pkg := range g.pkgs {
		p := &pass{loadedPkg: pkg, report: report}
		for _, r := range rules {
			if r.pkg != nil {
				r.pkg(p)
			}
		}
		allows = append(allows, collectAllows(g.fset, g.root, pkg.files)...)
	}
	for _, r := range rules {
		if r.prog != nil {
			r.prog(g, report)
		}
	}

	findings = applyAllows(findings, allows)
	sortFindings(findings)
	return findings
}

// applyAllows drops findings covered by a matching //fairlint:allow on the
// same line or the line above, then appends RuleAllow findings for
// defective directives (unknown rule, missing reason, suppresses nothing).
func applyAllows(findings []Finding, allows []*allowDirective) []Finding {
	idx := map[string]map[int]*allowDirective{} // file -> line -> directive
	for _, a := range allows {
		byLine := idx[a.file]
		if byLine == nil {
			byLine = map[int]*allowDirective{}
			idx[a.file] = byLine
		}
		byLine[a.line] = a
	}
	kept := findings[:0]
	for _, f := range findings {
		if a := idx[f.File][f.Line]; a != nil && a.rule == f.Rule {
			a.used = true
		} else if a := idx[f.File][f.Line-1]; a != nil && a.rule == f.Rule {
			a.used = true
		} else {
			kept = append(kept, f)
		}
	}
	known := KnownRules()
	for _, a := range allows {
		switch {
		case !slices.Contains(known, a.rule):
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  fmt.Sprintf("fairlint:allow names unknown rule %q", a.rule),
				Hint: "known rules: " + strings.Join(known, ", "),
			})
		case a.reason == "":
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.rule + " has no reason",
				Hint: "state why the invariant may be broken here: //fairlint:allow " + a.rule + " <reason>",
			})
		case !a.used:
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.rule + " suppresses nothing",
				Hint: "delete the stale suppression",
			})
		}
	}
	return kept
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Hint < b.Hint
	})
}

// WriteText renders findings one per line in "file:line:col: rule: msg"
// form. Output is deterministic because findings arrive sorted.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as a JSON array (never null) followed by a
// newline. Field order and formatting are fixed, so equal findings always
// produce byte-identical output.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}
