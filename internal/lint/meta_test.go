package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestModuleSelfLint is the linter's own acceptance gate: the tree must
// be clean (every historical violation fixed or justified with an
// explained allow), and two independent full runs must emit byte-identical
// JSON — the linter cannot demand determinism it does not itself have,
// so call-graph construction, taint propagation, and fixpoint iteration
// may not leak map order or pointer identity into the output.
func TestModuleSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	root := moduleRoot(t)
	run := func() ([]Finding, []byte) {
		findings, err := Run(Config{Dir: root, Patterns: []string{"./..."}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, findings); err != nil {
			t.Fatal(err)
		}
		return findings, buf.Bytes()
	}

	findings, first := run()
	for _, f := range findings {
		t.Errorf("tree not fairlint-clean: %s", f)
	}

	_, second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("fairlint -json is not byte-identical across runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestHotpathsAnnotated guards the annotation policy: every zero-alloc
// steady-state product function exercised by the alloc gate must
// carry //fairbench:hotpath, so the static gate stays armed for the
// functions whose alloc gate rows (internal/testbed's TestAllocGate)
// claim zero allocations.
func TestHotpathsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	root := moduleRoot(t)
	want := map[string]bool{
		"internal/sim.(*Sim).At":                  false,
		"internal/sim.(*Sim).Run":                 false,
		"internal/sim.(*Sim).RunAll":              false,
		"internal/packet.(*Parser).Parse":         false,
		"internal/nf.(*LinearMatcher).Match":      false,
		"internal/nf.(*Firewall).Process":         false,
		"internal/nf.(*Conntrack).Process":        false,
		"internal/workload.(*ScenarioGen).NextAt": false,
		"internal/workload.(*Generator).Next":     false,
		"internal/testbed.(*Deployment).dispatch": false,
		"internal/testbed.(*Deployment).offer":    false,
	}
	pkgs, fset, err := load(&Config{Dir: root, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range buildGraph(root, pkgs, fset).nodes {
		if _, tracked := want[n.key]; tracked && n.hot {
			want[n.key] = true
		}
	}
	for key, hot := range want {
		if !hot {
			t.Errorf("%s lost its //fairbench:hotpath annotation", key)
		}
	}
}

// TestWriteJSONShape pins the empty-findings encoding: an empty array
// (never null) with a trailing newline, so CI diffs and the byte-identity
// guarantee are stable.
func TestWriteJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("WriteJSON(nil) = %q, want %q", got, "[]\n")
	}
}
