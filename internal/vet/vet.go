// Package vet implements fairvet, the whole-program companion to
// fairlint (internal/lint). fairlint checks determinism invariants one
// file at a time; every rule it has can be laundered through a one-line
// wrapper in an allowed package — `func now() time.Time { return
// time.Now() }` in internal/runner, called from internal/sim, breaks
// replay while passing every per-file check. fairvet closes that class
// of loophole by building an interprocedural call graph over the whole
// module (on top of fairlint's loader: go/parser + go/types, stdlib
// only) and checking reachability and dataflow properties:
//
//   - taintreach: wall-clock reads, global math/rand draws, and
//     goroutine spawns reachable *transitively* from any function in the
//     sim boundary (internal/{sim,hw,measure,fault,nf,workload}) are
//     findings, with the full call chain printed as the hint.
//   - seedprov: every RNG construction (rand.New/NewSource family,
//     sim.NewRNG, stats.NewRNG) must take a seed that dataflows from a
//     parameter — a Spec field, a TrialSeed, an operator flag — never a
//     bare literal or package variable, so no experiment can silently
//     decouple from the replication machinery.
//   - hotalloc: functions annotated //fairbench:hotpath, and everything
//     they reach inside the hot-path scope, must satisfy an AST-level
//     allocation model: no make, no append that can grow its backing
//     array, no interface boxing of non-pointer-shaped values, no
//     closures capturing enclosing locals, no string concatenation in
//     loops. Allocation on error-return and panic paths is exempt —
//     those abort the operation and never run at steady state.
//   - orderflow: map iteration order that escapes a function through a
//     return value or a struct field and reaches a writer in another
//     function — the flow fairlint's intra-function maporder rule
//     cannot see.
//
// Suppression reuses fairlint's grammar verbatim: `//fairlint:allow
// <rule> <reason>` on the offending line or the line above. Directives
// naming fairvet rules are policed here (unknown rule, missing reason,
// and suppressing nothing are findings); directives naming fairlint
// rules are left to fairlint, and vice versa.
package vet

import (
	"go/token"
	"sort"

	"fairbench/internal/lint"
)

// Rule identifiers, stable across releases; these are the names
// accepted by //fairlint:allow comments (fairlint treats them as
// foreign rules and defers their policy here).
const (
	RuleTaintReach = "taintreach"
	RuleSeedProv   = "seedprov"
	RuleHotAlloc   = "hotalloc"
	RuleOrderFlow  = "orderflow"
	// RuleAllow reports defective suppression comments naming fairvet
	// rules. Emitted by the allow machinery itself; not suppressible.
	RuleAllow = "allow"
)

// knownRules is the set of rule names this tool owns.
var knownRules = map[string]bool{
	RuleTaintReach: true,
	RuleSeedProv:   true,
	RuleHotAlloc:   true,
	RuleOrderFlow:  true,
}

// KnownRules returns fairvet's suppressible rule names in sorted order.
func KnownRules() []string {
	names := make([]string, 0, len(knownRules))
	for name := range knownRules {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Finding reuses fairlint's finding shape (and its deterministic text
// and JSON renderers) so both tools' outputs compose.
type Finding = lint.Finding

// WriteText renders findings one per line; see lint.WriteText.
var WriteText = lint.WriteText

// WriteJSON renders findings as a deterministic JSON array; see
// lint.WriteJSON.
var WriteJSON = lint.WriteJSON

// Config selects what to analyze. Zero-value fields take the
// documented defaults.
type Config struct {
	// Dir is the root of the tree to analyze (the module root). Required.
	Dir string
	// Patterns are module-relative package patterns; default ./...
	Patterns []string
	// SimBoundary lists the package dirs whose functions must not
	// transitively reach nondeterminism (rule taintreach). Defaults to
	// DefaultSimBoundary.
	SimBoundary []string
	// HotpathScope lists the package dirs hot-path allocation checking
	// propagates through (rule hotalloc): an annotated function's
	// callees are checked when they live here. Defaults to
	// DefaultHotpathScope.
	HotpathScope []string
}

// DefaultSimBoundary is the determinism boundary: the packages whose
// code runs inside seeded, replayed simulations. It is fairlint's
// simconc set plus internal/workload, whose generators feed the
// simulated timeline packet by packet.
func DefaultSimBoundary() []string {
	return []string{
		"internal/sim",
		"internal/hw",
		"internal/measure",
		"internal/fault",
		"internal/nf",
		"internal/workload",
	}
}

// DefaultHotpathScope is where hotalloc findings propagate: the sim
// boundary plus internal/packet, whose parser is on the per-packet
// fast path of every deployment, and internal/testbed, whose dispatch
// path carries every simulated packet through the device models.
func DefaultHotpathScope() []string {
	return append(DefaultSimBoundary(), "internal/packet", "internal/testbed")
}

func (c *Config) fillDefaults() {
	if len(c.Patterns) == 0 {
		c.Patterns = []string{"./..."}
	}
	if c.SimBoundary == nil {
		c.SimBoundary = DefaultSimBoundary()
	}
	if c.HotpathScope == nil {
		c.HotpathScope = DefaultHotpathScope()
	}
}

// Run loads every package matched by cfg.Patterns under cfg.Dir,
// builds the whole-program call graph, runs all analyzers, applies
// //fairlint:allow suppressions for fairvet-owned rules, and returns
// findings sorted by (file, line, col, rule, msg).
func Run(cfg Config) ([]Finding, error) {
	cfg.fillDefaults()
	pkgs, fset, err := lint.Load(cfg.Dir, cfg.Patterns)
	if err != nil {
		return nil, err
	}

	g := buildGraph(&cfg, pkgs, fset)

	var findings []Finding
	report := func(pos token.Pos, rule, msg, hint string) {
		position := fset.Position(pos)
		findings = append(findings, Finding{
			File: lint.RelFile(cfg.Dir, position.Filename),
			Line: position.Line,
			Col:  position.Column,
			Rule: rule,
			Msg:  msg,
			Hint: hint,
		})
	}

	taintReach(g, report)
	seedProv(g, report)
	hotAlloc(g, report)
	orderFlow(g, report)

	var allows []lint.AllowDirective
	for _, pkg := range pkgs {
		allows = append(allows, lint.AllowDirectives(fset, cfg.Dir, pkg.Files)...)
	}
	findings = applyAllows(findings, allows)
	sortFindings(findings)
	return findings, nil
}

// applyAllows drops findings covered by a //fairlint:allow naming a
// fairvet rule on the same line or the line above, then appends
// RuleAllow findings for defective directives. Directives naming
// fairlint's rules are fairlint's to police and are skipped entirely;
// rules known to neither tool are reported by both.
func applyAllows(findings []Finding, allows []lint.AllowDirective) []Finding {
	lintRules := map[string]bool{}
	for _, r := range lint.KnownRules() {
		lintRules[r] = true
	}
	used := make([]bool, len(allows))
	idx := map[string]map[int]int{} // file -> line -> allow index
	for i, a := range allows {
		if !knownRules[a.Rule] {
			continue
		}
		byLine := idx[a.File]
		if byLine == nil {
			byLine = map[int]int{}
			idx[a.File] = byLine
		}
		byLine[a.Line] = i
	}

	kept := findings[:0]
	for _, f := range findings {
		matched := false
		if byLine := idx[f.File]; byLine != nil {
			for _, line := range []int{f.Line, f.Line - 1} {
				if i, ok := byLine[line]; ok && allows[i].Rule == f.Rule {
					used[i] = true
					matched = true
					break
				}
			}
		}
		if !matched {
			kept = append(kept, f)
		}
	}
	for i, a := range allows {
		switch {
		case lintRules[a.Rule]:
			// fairlint's rule, fairlint's policy.
		case !knownRules[a.Rule]:
			kept = append(kept, Finding{
				File: a.File, Line: a.Line, Col: a.Col, Rule: RuleAllow,
				Msg:  "fairlint:allow names a rule unknown to fairvet: " + quoted(a.Rule),
				Hint: "fairvet rules: " + joinRules(),
			})
		case a.Reason == "":
			kept = append(kept, Finding{
				File: a.File, Line: a.Line, Col: a.Col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.Rule + " has no reason",
				Hint: "state why the invariant may be broken here: //fairlint:allow " + a.Rule + " <reason>",
			})
		case !used[i]:
			kept = append(kept, Finding{
				File: a.File, Line: a.Line, Col: a.Col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.Rule + " suppresses nothing",
				Hint: "delete the stale suppression",
			})
		}
	}
	return kept
}

func quoted(s string) string { return `"` + s + `"` }

func joinRules() string {
	out := ""
	for i, name := range KnownRules() {
		if i > 0 {
			out += ", "
		}
		out += name
	}
	return out
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
