package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// constArg is one parameter of an exported function that every non-test
// call passes the same compile-time constant.
type constArg struct {
	key   string // "dir.Func param name", e.g. "internal/hw.NewChassis param rackUnits"
	fn    string // the function's graph key, e.g. "internal/hw.NewChassis"
	value string // the constant, as go/constant prints it
	calls int
	pos   token.Pos
}

// paramUse accumulates the arguments the calls of one function pass.
type paramUse struct {
	calls  int
	values []constant.Value // per parameter: the constant every call so far passed
	varies []bool           // per parameter: some call passed another value or a non-constant
}

// constantArgs returns every parameter of an exported, non-root module
// function that all non-test calls pass one and the same compile-time
// constant, sorted by key. Exempt are variadic parameters, functions of
// the root package (public API), functions no non-test code calls, and
// functions that are also reached other than by a direct call: a
// function or method value, a method expression, or a method that
// satisfies an interface the program uses (including the methods in
// stdlibMethods), since their callers are not all visible as calls.
func constantArgs(g *graph) []constArg {
	uses := map[*fnode]*paramUse{}
	indirect := map[*fnode]bool{}
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, pkg := range g.pkgs {
		info := pkg.info
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		for _, obj := range info.Defs {
			if obj != nil {
				addIface(obj.Type())
			}
		}
		for _, f := range pkg.files {
			called := map[*ast.Ident]bool{}
			ast.Inspect(f, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(info, call)
				if callee == nil {
					return true
				}
				n := g.byFn[origin(callee)]
				if n == nil {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodExpr {
						return true // T.M(recv, ...): counted as a reference below
					}
					called[sel.Sel] = true
				} else {
					called[ast.Unparen(call.Fun).(*ast.Ident)] = true
				}
				recordCall(uses, n, info, call)
				return true
			})
			ast.Inspect(f, func(nd ast.Node) bool {
				if id, ok := nd.(*ast.Ident); ok && !called[id] {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						if n := g.byFn[origin(fn)]; n != nil {
							indirect[n] = true
						}
					}
				}
				return true
			})
		}
	}

	var out []constArg
	for _, n := range g.nodes {
		u := uses[n]
		if u == nil || n.rel == "." || !n.fn.Exported() || indirect[n] || viaInterface(n, ifaces) {
			continue
		}
		params := n.fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if u.varies[i] {
				continue
			}
			name := params.At(i).Name()
			if name == "" || name == "_" {
				name = "#" + strconv.Itoa(i)
			}
			out = append(out, constArg{
				key: n.key + " param " + name, fn: n.key,
				value: u.values[i].String(), calls: u.calls, pos: params.At(i).Pos(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// recordCall folds one direct call of n into its paramUse. A variadic
// parameter always varies, and so does every parameter of a call whose
// arguments come from one multi-value call.
func recordCall(uses map[*fnode]*paramUse, n *fnode, info *types.Info, call *ast.CallExpr) {
	sig := n.fn.Type().(*types.Signature)
	np := sig.Params().Len()
	u := uses[n]
	if u == nil {
		u = &paramUse{values: make([]constant.Value, np), varies: make([]bool, np)}
		uses[n] = u
	}
	u.calls++
	for i := 0; i < np; i++ {
		if u.varies[i] {
			continue
		}
		var v constant.Value
		if i < len(call.Args) && (len(call.Args) == np || sig.Variadic()) && !(sig.Variadic() && i == np-1) {
			v = info.Types[call.Args[i]].Value
		}
		switch {
		case v == nil || u.values[i] != nil && u.values[i].ExactString() != v.ExactString():
			u.varies[i] = true
		case u.values[i] == nil:
			u.values[i] = v
		}
	}
}

// viaInterface reports whether method n may be called through an
// interface: its name is in stdlibMethods, or its receiver type
// satisfies one of ifaces that declares a method of that name.
func viaInterface(n *fnode, ifaces []*types.Interface) bool {
	recv := n.fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if stdlibMethods[n.fn.Name()] {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == n.fn.Name() && implementsEither(t, it) {
				return true
			}
		}
	}
	return false
}

// constArgAllow lists the functions whose parameters every non-test
// call passes one constant and that stay anyway, each with the reason.
// A key is a function key as the graph prints it and covers all its
// parameters.
var constArgAllow = map[string]string{
	"internal/measure.(*ThroughputMeter).Start": "bench/ calls it: the benchmark module, which this load does not see, starts meters at 0 and its API is frozen",
}

// TestNoConstantArguments keeps parameters that only ever see one value
// deleted: no parameter of an exported non-root function may be passed
// the same compile-time constant by every non-test call (see
// constantArgs), unless constArgAllow lists it with a reason. Such a
// parameter is a constant spelled at every call site, and validation of
// it only ever sees that constant. A stale allow entry fails too.
func TestNoConstantArguments(t *testing.T) {
	g := moduleGraph(t)
	used := map[string]bool{}
	for _, c := range constantArgs(g) {
		if _, ok := constArgAllow[c.fn]; ok {
			used[c.fn] = true
			continue
		}
		t.Errorf("%s (%s): all %d non-test calls pass %s: make it a constant of the callee and delete the parameter, or list it in constArgAllow with the reason it stays",
			c.key, g.shortPos(c.pos), c.calls, c.value)
	}
	for k, reason := range constArgAllow {
		switch {
		case reason == "":
			t.Errorf("constArgAllow[%q] has no reason", k)
		case !used[k]:
			t.Errorf("constArgAllow[%q] covers no constant parameter: delete the stale entry", k)
		}
	}
}

// TestConstantArgumentsGolden pins the call classifier on the
// testdata/constargs module: constant, varying and non-constant
// arguments, plus each exemption.
func TestConstantArgumentsGolden(t *testing.T) {
	dir := filepath.Join("testdata", constArgsCorpus)
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
	for _, c := range constantArgs(g) {
		b.WriteString(g.shortPos(c.pos) + ": " + c.key + " = " + c.value + " (" + strconv.Itoa(c.calls) + " calls)\n")
	}
	want, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("constant parameters mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
