package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetField is one exported struct field that no non-test code sets.
type unsetField struct {
	key string // "dir.Type.Field", e.g. "internal/hw.FPGAConfig.LUTsUsed"
	pos token.Pos
}

// unsetOptions returns every exported field of a package-level struct
// type outside the root package that the loaded (non-test) code never
// writes, sorted by key. Embedded fields, tagged fields (decoded by
// reflection) and root-package fields (public API, like the root
// package's exported functions) are exempt. A write is a composite
// literal element; the target of an assignment, inc/dec or range
// assignment, including x.F[i] and x.F.G; the operand of & or of a
// slice expression; or the receiver of a pointer-method call. Writes inside a function named
// withDefaults do not count: filling in a default is not setting an
// option.
func unsetOptions(g *graph) []unsetField {
	written := map[*types.Var]bool{}
	for _, pkg := range g.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" {
					continue
				}
				markWrites(pkg.info, d, written)
			}
		}
	}
	var out []unsetField
	for _, pkg := range g.pkgs {
		if pkg.rel == "." || pkg.types == nil {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if !fv.Exported() || fv.Embedded() || st.Tag(i) != "" || written[fv] {
					continue
				}
				out = append(out, unsetField{key: pkg.rel + "." + tn.Name() + "." + fv.Name(), pos: fv.Pos()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// markWrites records in written every struct field that root writes.
func markWrites(info *types.Info, root ast.Node, written map[*types.Var]bool) {
	// lvalue marks every field selected along an addressed expression:
	// x.F.G marks G and F, x.F[i] and *x.F mark F.
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					written[fieldOrigin(v)] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CompositeLit:
			st, ok := typeStruct(info.TypeOf(nd))
			if !ok {
				break
			}
			for i, el := range nd.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							written[fieldOrigin(v)] = true
						}
					}
				} else if i < st.NumFields() {
					written[fieldOrigin(st.Field(i))] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				lvalue(lhs)
			}
		case *ast.IncDecStmt:
			lvalue(nd.X)
		case *ast.RangeStmt:
			if nd.Tok == token.ASSIGN {
				if nd.Key != nil {
					lvalue(nd.Key)
				}
				if nd.Value != nil {
					lvalue(nd.Value)
				}
			}
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				lvalue(nd.X)
			}
		case *ast.SliceExpr:
			lvalue(nd.X)
		case *ast.SelectorExpr:
			// A pointer method called on an addressable value takes its
			// address implicitly.
			fn, ok := info.Uses[nd.Sel].(*types.Func)
			if !ok {
				break
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				break
			}
			if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
				break
			}
			if _, ptrOperand := info.TypeOf(nd.X).Underlying().(*types.Pointer); !ptrOperand {
				lvalue(nd.X)
			}
		}
		return true
	})
}

// typeStruct returns t's underlying struct, looking through one pointer
// (the elided &T of a nested composite literal).
func typeStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// fieldOrigin maps a field of an instantiated generic struct back to
// the declared field.
func fieldOrigin(v *types.Var) *types.Var {
	if o := v.Origin(); o != nil {
		return o
	}
	return v
}

// unsetAllow lists the exported fields that no non-test code sets and
// that stay anyway, each with the reason. A key is a package dir, a
// type ("dir.Type", covering its fields) or a field ("dir.Type.Field").
var unsetAllow = map[string]string{
	"internal/runner/chaos":                     "test-support package: the runner's chaos tests configure its fault injectors",
	"internal/runner.Options.WriteArtifact":     "IO seam: the chaos tests inject torn and failing artifact writes through it",
	"internal/packet.BuildOpts.VLAN":            "parser and fuzz tests build 802.1Q-tagged frames with it to cover the VLAN decode of trace-file input",
	"internal/hw.CPUConfig.FixedLatencySeconds": "theory_test.go sets it to -1 to drop the fixed latency for its M/D/1 oracle",
}

// unsetAllowKey returns the unsetAllow entry covering u, or "".
func unsetAllowKey(u unsetField) string {
	typ := u.key[:strings.LastIndex(u.key, ".")]
	for _, k := range []string{u.key, typ, typ[:strings.LastIndex(typ, ".")]} {
		if _, ok := unsetAllow[k]; ok {
			return k
		}
	}
	return ""
}

// TestNoUnsetOptions keeps options that no program sets deleted: every
// exported field of a non-root struct must be written somewhere in
// non-test code outside withDefaults (see unsetOptions), or be listed in
// unsetAllow with a reason. An option only tests set doubles the
// configurations tests must cover while no artifact ever runs the
// non-default branch. A stale allow entry fails too.
func TestNoUnsetOptions(t *testing.T) {
	g := moduleGraph(t)
	used := map[string]bool{}
	for _, u := range unsetOptions(g) {
		if k := unsetAllowKey(u); k != "" {
			used[k] = true
			continue
		}
		t.Errorf("%s (%s) is set by no non-test code outside withDefaults: make its default a named constant and delete the field, or list it in unsetAllow with the reason it stays",
			u.key, g.shortPos(u.pos))
	}
	for k, reason := range unsetAllow {
		switch {
		case reason == "":
			t.Errorf("unsetAllow[%q] has no reason", k)
		case !used[k]:
			t.Errorf("unsetAllow[%q] covers no unset field: delete the stale entry", k)
		}
	}
}

// TestUnsetOptionsGolden pins the write classifier on the
// testdata/unsetopts module: one field per write form, plus fields
// that are unset, written only in withDefaults, embedded or tagged.
func TestUnsetOptionsGolden(t *testing.T) {
	dir := filepath.Join("testdata", unsetCorpus)
	pkgs, fset, err := load(&Config{Dir: dir, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(root, pkgs, fset)
	var b strings.Builder
	for _, u := range unsetOptions(g) {
		b.WriteString(g.shortPos(u.pos) + ": " + u.key + "\n")
	}
	want, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("unset fields mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
