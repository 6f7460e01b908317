package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsetCorpus is TestUnsetOptionsGolden's testdata module; it pins the
// write classifier of TestNoUnsetOptions, not a fairlint rule.
const unsetCorpus = "unsetopts"

// corpora lists every rule corpus under testdata: one dir per rule, plus
// allowmeta for the allow meta-rule.
func corpora(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.Name() != unsetCorpus {
			names = append(names, e.Name())
		}
	}
	return names
}

// corpusRuns memoizes Run per corpus: each run type-checks the stdlib
// packages its corpus imports from source, so the golden and suppression
// tests share one run per corpus.
var corpusRuns = map[string][]Finding{}

func runCorpus(t *testing.T, name string) []Finding {
	t.Helper()
	findings, ok := corpusRuns[name]
	if !ok {
		var err error
		if findings, err = Run(Config{Dir: filepath.Join("testdata", name)}); err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		corpusRuns[name] = findings
	}
	return findings
}

// TestAnalyzerGoldens runs all nine rules over each testdata corpus
// (positive, negative, and suppressed cases) and asserts the exact
// findings — positions, messages, and fix hints — against the expect.txt
// golden, so a corpus also pins what the other rules say about it.
func TestAnalyzerGoldens(t *testing.T) {
	for _, name := range corpora(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteText(&buf, runCorpus(t, name)); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name, "expect.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldensCoverEveryRule guards the corpus itself: each analyzer must
// have at least one positive case, so a rule silently going dead fails
// here rather than in production.
func TestGoldensCoverEveryRule(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range corpora(t) {
		data, err := os.ReadFile(filepath.Join("testdata", name, "expect.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			parts := strings.SplitN(line, ": ", 3)
			if len(parts) >= 2 {
				seen[parts[1]] = true
			}
		}
	}
	for _, rule := range append(KnownRules(), RuleAllow) {
		if !seen[rule] {
			t.Errorf("no golden case exercises rule %s", rule)
		}
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text, rule, reason string
		ok                 bool
	}{
		{"//fairlint:allow wallclock operator log only", "wallclock", "operator log only", true},
		{"//fairlint:allow wallclock", "wallclock", "", true},
		{"//fairlint:allow", "", "", true},
		{"//fairlint:allow  maporder   spaced   out  ", "maporder", "spaced out", true},
		{"//fairlint:allowwallclock smushed", "", "", false},
		{"// fairlint:allow wallclock spaced directive is not a directive", "", "", false},
		{"// ordinary comment", "", "", false},
		{"//fairlint:deny wallclock", "", "", false},
	}
	for _, c := range cases {
		rule, reason, ok := ParseAllow(c.text)
		if rule != c.rule || reason != c.reason || ok != c.ok {
			t.Errorf("ParseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, rule, reason, ok, c.rule, c.reason, c.ok)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{".", "./...", true},
		{"internal/sim", "./...", true},
		{"internal/sim", "./internal/...", true},
		{"internal/sim", "internal/...", true},
		{"internal/sim", "./internal/sim", true},
		{"internal/simulator", "./internal/sim", false},
		{"internal/simulator", "./internal/sim/...", false},
		{"internal/sim/sub", "./internal/sim/...", true},
		{".", ".", true},
		{"cmd/fairsim", ".", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}

// TestSuppressedFindingsStaySuppressed pins the allow semantics: the
// corpora contain suppressed positives (same-line and line-above allows)
// and none of them may reappear as findings, nor may a working
// suppression itself be flagged.
func TestSuppressedFindingsStaySuppressed(t *testing.T) {
	for _, name := range corpora(t) {
		if name == "allowmeta" {
			continue // its RuleAllow findings are the point
		}
		for _, f := range runCorpus(t, name) {
			if f.Rule == RuleAllow {
				t.Errorf("%s corpus: allow machinery flagged a working suppression: %s", name, f)
			}
		}
	}
}

func TestParseHotpath(t *testing.T) {
	cases := []struct {
		text, note string
		ok         bool
	}{
		{"//fairbench:hotpath", "", true},
		{"//fairbench:hotpath alloc gate row packet-parse", "alloc gate row packet-parse", true},
		{"//fairbench:hotpath   spaced   note  ", "spaced note", true},
		{"//fairbench:hotpath\tnote", "note", true},
		{"//fairbench:hotpathology", "", false},
		{"// fairbench:hotpath spaced marker is not a directive", "", false},
		{"//fairbench:coldpath", "", false},
		{"// ordinary comment", "", false},
	}
	for _, c := range cases {
		note, ok := ParseHotpath(c.text)
		if note != c.note || ok != c.ok {
			t.Errorf("ParseHotpath(%q) = (%q, %v), want (%q, %v)", c.text, note, ok, c.note, c.ok)
		}
	}
}
