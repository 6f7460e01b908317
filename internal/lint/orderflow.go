package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// orderFlow tracks map iteration order across function boundaries.
// The maporder rule is intra-function: it sees a map range that
// prints, and appends to a plain identifier that is printed later in
// the same function. It provably cannot see the two interprocedural
// shapes this analyzer covers:
//
//   - a function builds a slice inside a map range and returns it; a
//     caller (possibly in another package) writes it to an artifact —
//     the sink function contains no map range at all;
//   - a method appends map-ordered data to a struct field
//     (p.keys = append(p.keys, k) — a *selector* target, which the
//     intra-function escape check does not model) and a different
//     method writes the field.
//
// Per-function summaries record which return values and which struct
// fields carry map order; a fixpoint propagates them through chains of
// returns. Sinks are fmt print calls, io.WriteString, and Write /
// WriteString methods on io.Writer implementations. A sort of the
// carrier (sort.Strings and friends) before the sink clears the taint,
// mirroring maporder. Only taint that crossed a function boundary is
// reported here — purely local flows stay maporder's to report, so the
// two rules never double-report one defect.
func orderFlow(g *graph, report reportFunc) {
	of := &ofState{
		g:     g,
		ret:   map[ofRetKey]ofTaint{},
		field: map[ofFieldKey]ofTaint{},
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			if of.analyze(n, nil) {
				changed = true
			}
		}
	}
	for _, n := range g.nodes {
		of.analyze(n, report)
	}
}

// ofTaint describes one map-order carrier: where the order was born and
// how it traveled.
type ofTaint struct {
	pos     token.Pos // the originating `for ... range m` statement
	site    string    // pos rendered as file:line (stable across runs)
	via     string    // first boundary crossed, for the hint; "" until crossed
	crossed bool      // has left the function that ranged the map
}

type ofRetKey struct {
	fn  *types.Func
	idx int
}

type ofFieldKey struct {
	typ   string // package-qualified named type, e.g. "demo.Report"
	field string
}

type ofState struct {
	g     *graph
	ret   map[ofRetKey]ofTaint
	field map[ofFieldKey]ofTaint
}

func (of *ofState) setRet(k ofRetKey, t ofTaint) bool {
	if _, ok := of.ret[k]; ok {
		return false
	}
	of.ret[k] = t
	return true
}

func (of *ofState) setField(k ofFieldKey, t ofTaint) bool {
	if _, ok := of.field[k]; ok {
		return false
	}
	of.field[k] = t
	return true
}

// analyze runs the local pass over one function: seeds taint from its
// map ranges, propagates through assignments and summary lookups,
// updates summaries (the returned bool reports summary growth), and —
// when report is non-nil — emits findings at sinks fed by taint that
// crossed a function boundary.
func (of *ofState) analyze(n *fnode, report reportFunc) bool {
	info := n.pkg.info
	changed := false
	local := map[types.Object]ofTaint{}
	clearedField := map[ofFieldKey]bool{}

	var taintOf func(e ast.Expr) (ofTaint, bool)
	taintOf = func(e ast.Expr) (ofTaint, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := identObj(info, e); obj != nil {
				t, ok := local[obj]
				return t, ok
			}
		case *ast.SelectorExpr:
			if k, ok := of.fieldKeyOf(info, e); ok && !clearedField[k] {
				if t, tainted := of.field[k]; tainted {
					return cross(t, "via field "+k.typ+"."+k.field), true
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				return taintOf(e.Args[0]) // conversion: []byte(s), MyList(s)
			}
			if builtinName(info, e) == "append" {
				for _, a := range e.Args {
					if t, ok := taintOf(a); ok {
						return t, true
					}
				}
				return ofTaint{}, false
			}
			callee := calleeFunc(info, e)
			if callee == nil {
				return ofTaint{}, false
			}
			if isOrderPropagator(callee) {
				for _, a := range e.Args {
					if t, ok := taintOf(a); ok {
						return t, true
					}
				}
				return ofTaint{}, false
			}
			if t, ok := of.ret[ofRetKey{origin(callee), 0}]; ok {
				return cross(t, "returned by "+calleeKey(of.g, callee)), true
			}
		case *ast.IndexExpr:
			return taintOf(e.X)
		}
		return ofTaint{}, false
	}

	assignTo := func(lhs ast.Expr, t ofTaint, tainted bool) {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			if obj := identObj(info, lhs); obj != nil {
				if tainted {
					local[obj] = t
				} else {
					delete(local, obj) // rebinding to clean data clears
				}
			}
		case *ast.SelectorExpr:
			if !tainted {
				return
			}
			if k, ok := of.fieldKeyOf(info, lhs); ok {
				if of.setField(k, t) {
					changed = true
				}
			}
		}
	}

	var stack []ast.Node
	inMapRange := func() (token.Pos, bool) {
		for i := len(stack) - 1; i >= 0; i-- {
			if r, ok := stack[i].(*ast.RangeStmt); ok {
				if _, isMap := info.TypeOf(r.X).Underlying().(*types.Map); isMap {
					return r.Pos(), true
				}
			}
		}
		return token.NoPos, false
	}

	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, nd)
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				if len(nd.Rhs) == len(nd.Lhs) {
					rhs := nd.Rhs[i]
					t, tainted := taintOf(rhs)
					// An append executed inside a map range builds its
					// target in iteration order, whatever is appended.
					if !tainted {
						if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(info, call) == "append" {
							if pos, in := inMapRange(); in {
								t = ofTaint{pos: pos, site: of.g.shortPos(pos)}
								tainted = true
							}
						}
					}
					assignTo(lhs, t, tainted)
				} else if len(nd.Rhs) == 1 {
					if call, ok := ast.Unparen(nd.Rhs[0]).(*ast.CallExpr); ok {
						if callee := calleeFunc(info, call); callee != nil {
							if t, ok := of.ret[ofRetKey{origin(callee), i}]; ok {
								assignTo(lhs, cross(t, "returned by "+calleeKey(of.g, callee)), true)
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if name, pkgPath, ok := pkgCall(info, nd); ok && sortFuncs[pkgPath+"."+name] && len(nd.Args) > 0 {
				arg := ast.Unparen(nd.Args[0])
				if id, isIdent := arg.(*ast.Ident); isIdent {
					if obj := identObj(info, id); obj != nil {
						delete(local, obj)
					}
				} else if sel, isSel := arg.(*ast.SelectorExpr); isSel {
					if k, ok := of.fieldKeyOf(info, sel); ok {
						clearedField[k] = true
					}
				}
				return true
			}
			if report != nil {
				of.checkSink(info, nd, taintOf, report)
			}
		case *ast.ReturnStmt:
			for i, res := range nd.Results {
				if t, tainted := taintOf(res); tainted {
					if of.setRet(ofRetKey{origin(n.fn), i}, t) {
						changed = true
					}
				}
			}
		}
		return true
	})
	return changed
}

// checkSink reports tainted arguments reaching a writer, but only when
// the taint crossed a function boundary (local flows are maporder's).
func (of *ofState) checkSink(info *types.Info, call *ast.CallExpr, taintOf func(ast.Expr) (ofTaint, bool), report reportFunc) {
	if !isWriteSink(info, call) {
		return
	}
	for _, arg := range call.Args {
		t, tainted := taintOf(arg)
		if !tainted || !t.crossed {
			continue
		}
		report(arg.Pos(), RuleOrderFlow,
			"map iteration order reaches a writer across a function boundary ("+t.via+")",
			"order originates at the map range at "+t.site+
				"; sort the carrier before it escapes, or sort here before writing "+
				"(or add //fairlint:allow orderflow <reason>)")
		return // one finding per sink call is enough
	}
}

// cross marks a taint as having left its defining function, recording
// the first crossing for the hint.
func cross(t ofTaint, via string) ofTaint {
	t.crossed = true
	if t.via == "" {
		t.via = via
	}
	return t
}

// fieldKeyOf resolves x.f to (qualified type, field) when f is a
// struct field of a named type.
func (of *ofState) fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) (ofFieldKey, bool) {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return ofFieldKey{}, false
	}
	t := info.TypeOf(sel.X)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ofFieldKey{}, false
	}
	typ := named.Obj().Name()
	if pkg := named.Obj().Pkg(); pkg != nil {
		typ = pkg.Name() + "." + typ
	}
	return ofFieldKey{typ: typ, field: v.Name()}, true
}

// calleeKey renders a callee for hints, preferring its graph key.
func calleeKey(g *graph, fn *types.Func) string {
	if n := g.byFn[origin(fn)]; n != nil {
		return n.key
	}
	return fn.Name()
}

// isOrderPropagator lists pure functions whose output preserves the
// element order of a tainted input: joining and formatting.
func isOrderPropagator(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "strings":
		return fn.Name() == "Join"
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Sprint") || strings.HasPrefix(fn.Name(), "Append")
	}
	return false
}

// fmt print functions that write rather than return.
var printSinks = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// isWriteSink reports whether call emits bytes to an artifact: a fmt
// print call, io.WriteString, or a Write/WriteString method on an
// io.Writer implementation.
func isWriteSink(info *types.Info, call *ast.CallExpr) bool {
	if name, pkgPath, ok := pkgCall(info, call); ok {
		if pkgPath == "fmt" && printSinks[name] {
			return true
		}
		if pkgPath == "io" && name == "WriteString" {
			return true
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if callee.Name() != "Write" && callee.Name() != "WriteString" {
		return false
	}
	return types.Implements(sig.Recv().Type(), ioWriterIface) ||
		isIface(sig.Recv().Type())
}

// pkgCall decomposes a package-level function call into (name, package
// path).
func pkgCall(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	callee := calleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "", false
	}
	return callee.Name(), callee.Pkg().Path(), true
}
