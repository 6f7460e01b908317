package lint

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
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

// moduleGraphCache is the one load and call graph of the whole module
// that the whole-module tests share: type-checking the module from
// source dominates this package's test time.
var moduleGraphCache *graph

func moduleGraph(t *testing.T) *graph {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	if moduleGraphCache == nil {
		root := moduleRoot(t)
		pkgs, fset, err := load(&Config{Dir: root, Patterns: []string{"./..."}})
		if err != nil {
			t.Fatal(err)
		}
		moduleGraphCache = buildGraph(root, pkgs, fset)
	}
	return moduleGraphCache
}

// TestModuleSelfLint is the linter's own acceptance gate: the tree must
// be clean (every historical violation fixed or justified with an
// explained allow), and two independent full runs must emit byte-identical
// JSON — the linter cannot demand determinism it does not itself have,
// so call-graph construction, taint propagation, and fixpoint iteration
// may not leak map order or pointer identity into the output.
func TestModuleSelfLint(t *testing.T) {
	encode := func(findings []Finding) []byte {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, findings); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	findings := analyze(moduleGraph(t))
	for _, f := range findings {
		t.Errorf("tree not fairlint-clean: %s", f)
	}
	first := encode(findings)

	again, err := Run(Config{Dir: moduleRoot(t), Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if second := encode(again); !bytes.Equal(first, second) {
		t.Errorf("fairlint -json is not byte-identical across runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestHotpathsAnnotated guards the annotation policy: every zero-alloc
// steady-state product function exercised by the alloc gate must
// carry //fairbench:hotpath, so the static gate stays armed for the
// functions whose alloc gate rows (internal/testbed's TestAllocGate)
// claim zero allocations.
func TestHotpathsAnnotated(t *testing.T) {
	want := map[string]bool{
		"internal/sim.(*Sim).AtCallback":          false,
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
	for _, n := range moduleGraph(t).nodes {
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

// unreachableAllow lists the non-test code that no root reaches and that
// stays anyway, each with the reason the call graph cannot see. A key is
// a package dir, a type ("dir.Type", covering its methods) or a function
// key as the graph prints it.
var unreachableAllow = map[string]string{
	"internal/runner/chaos":              "test-support package: the fault injectors the runner's chaos tests drive",
	"internal/telemetry.IsTelemetryFile": "test support: lets artifact-comparison tests skip wall-clock telemetry files",
	"internal/perf.ExactQuantile":        "test oracle: the sorted-sample quantile the histogram tests compare against",
	"internal/packet.VerifyChecksumUDP":  "test oracle: the parser tests check built UDP checksums with it",
	"internal/packet.VerifyChecksumTCP":  "test oracle: the parser tests check built TCP checksums with it",
	"internal/nf.(*FlowTable).Get":       "test oracle: TestFlowTableUseMatchesGetTouch checks Use against Get followed by Touch",
	"internal/nf.(*FlowTable).Touch":     "test oracle: TestFlowTableUseMatchesGetTouch checks Use against Get followed by Touch",
}

// stdlibMethods are method names the standard library finds by type
// assertion on a value boxed into an empty interface (fmt, errors,
// encoding/json), which the call graph does not link.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// reachable returns the graph nodes reached from the roots of a program:
// every main and init function, every package-level variable
// initializer, every exported function of the root (library) package,
// and the methods in stdlibMethods.
func reachable(g *graph) map[*fnode]bool {
	var work []*fnode
	for _, n := range g.nodes {
		sig := n.fn.Type().(*types.Signature)
		name := n.fn.Name()
		switch {
		case sig.Recv() == nil && name == "init",
			sig.Recv() == nil && name == "main" && n.pkg.types.Name() == "main",
			sig.Recv() == nil && n.rel == "." && n.fn.Exported(),
			sig.Recv() != nil && stdlibMethods[name]:
			work = append(work, n)
		}
	}
	for _, pkg := range g.pkgs {
		vars := &fnode{key: pkg.rel + ".<var init>", rel: pkg.rel, pkg: pkg, outSet: map[*fnode]bool{}}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					g.scan(vars, gd)
				}
			}
		}
		work = append(work, vars.out...)
	}
	seen := map[*fnode]bool{}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		work = append(work, n.out...)
	}
	return seen
}

// allowKey returns the unreachableAllow entry covering n, or "".
func allowKey(n *fnode) string {
	keys := []string{n.key, n.rel}
	if sig := n.fn.Type().(*types.Signature); sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			keys = append(keys, n.rel+"."+named.Obj().Name())
		}
	}
	for _, k := range keys {
		if _, ok := unreachableAllow[k]; ok {
			return k
		}
	}
	return ""
}

// TestNoUnreachableCode keeps code that no artifact reaches deleted:
// every non-test function must be reachable in the call graph from a
// program root (see reachable), or be listed in unreachableAllow with
// a reason. A stale allow entry, one that covers nothing unreachable,
// fails too.
func TestNoUnreachableCode(t *testing.T) {
	g := moduleGraph(t)
	live := reachable(g)
	used := map[string]bool{}
	for _, n := range g.nodes {
		if live[n] {
			continue
		}
		if k := allowKey(n); k != "" {
			used[k] = true
			continue
		}
		start, end := g.fset.Position(n.decl.Pos()), g.fset.Position(n.decl.End())
		t.Errorf("%s (%s, %d lines) is reached from no main, init, package-level initializer or exported root-package function: delete it, or list it in unreachableAllow with the reason the call graph cannot see",
			n.key, g.shortPos(n.decl.Pos()), end.Line-start.Line+1)
	}
	for k, reason := range unreachableAllow {
		switch {
		case reason == "":
			t.Errorf("unreachableAllow[%q] has no reason", k)
		case !used[k]:
			t.Errorf("unreachableAllow[%q] covers no unreachable function: delete the stale entry", k)
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
