package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotAlloc enforces allocation discipline on measured hot paths. A
// function annotated //fairbench:hotpath, and everything it reaches
// through the call graph inside hotpathScope, must not allocate at
// steady state: the zero-alloc bounds of the alloc gate rows
// (internal/testbed's TestAllocGate) are load-bearing (an allocation on
// the per-packet path shows up as noise in every comparison the paper's
// methodology depends on), so this rule flags the allocation at lint
// time, before the gate measures it.
//
// The model is AST-level and intentionally conservative about what it
// flags (each pattern below allocates or may allocate) and about what
// it exempts: any expression lexically inside a `return` whose last
// value is a non-nil error, or inside the arguments of panic, sits on
// an abort path that never runs at steady state and is skipped.
//
//   - make of anything
//   - new(T) and &T{...}: the compiler keeps them on the stack only
//     when they provably do not escape, and on a hot path they usually
//     do (stored in a queue, handed to a callback) — the per-event
//     &event{} the kernel once allocated in sim.At is the case in point
//   - append, unless the target was rebound to an array-backed
//     reslice (t = a[:0] with a array-typed) in the same function —
//     the idiom internal/packet uses for its fixed-capacity scratch
//   - boxing a non-pointer-shaped value into an interface (pointer,
//     chan, func, map, and unsafe.Pointer fit in the iface word)
//   - a function literal that captures an enclosing local
//   - string concatenation inside a loop
func hotAlloc(g *graph, report reportFunc) {
	// Hot set: BFS from annotated roots; propagation continues only
	// through packages in hotpathScope so annotating a command's bench
	// harness does not drag fmt into the gate.
	rootOf := map[*fnode]*fnode{}
	var queue []*fnode
	for _, n := range g.nodes { // sorted, so BFS tie-breaks are stable
		if n.hot {
			rootOf[n] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.out {
			if _, seen := rootOf[c]; !seen && inDirs(c.rel, hotpathScope) {
				rootOf[c] = rootOf[n]
				queue = append(queue, c)
			}
		}
	}
	for _, n := range g.nodes {
		if root, hot := rootOf[n]; hot {
			checkAllocs(g, n, root, report)
		}
	}
}

// checkAllocs walks one hot function's body with an explicit ancestor
// stack (ast.Inspect's post-order nil callback pops it) so every site
// can consult its enclosing statements for exemptions.
func checkAllocs(g *graph, n *fnode, root *fnode, report reportFunc) {
	info := n.pkg.info
	via := "on hot path from " + root.key
	if root == n {
		via = "in a //fairbench:hotpath function"
	}
	hint := func(fix string) string {
		return fix + " (" + via + "; or add //fairlint:allow hotalloc <reason>)"
	}
	bounded := boundedTargets(info, n.decl)

	var stack []ast.Node
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, nd)
		if onAbortPath(info, stack) {
			return true
		}
		switch nd := nd.(type) {
		case *ast.CallExpr:
			switch builtinName(info, nd) {
			case "make":
				report(nd.Pos(), RuleHotAlloc,
					"make allocates on the hot path",
					hint("hoist the allocation into construction/reset"))
			case "new":
				report(nd.Pos(), RuleHotAlloc,
					"new may heap-allocate on the hot path",
					hint("store the value inline, or recycle records through a free list"))
			case "append":
				if len(nd.Args) > 0 && !bounded[exprKey(nd.Args[0])] && !isScratchReslice(nd.Args[0]) {
					report(nd.Pos(), RuleHotAlloc,
						"append may grow its backing array on the hot path",
						hint("preallocate, or rebind the target to an array-backed reslice (t = a[:0])"))
				}
			case "":
				checkCallBoxing(info, nd, report, hint)
			}
		case *ast.UnaryExpr:
			if _, lit := ast.Unparen(nd.X).(*ast.CompositeLit); lit && nd.Op == token.AND {
				report(nd.Pos(), RuleHotAlloc,
					"&"+types.TypeString(info.TypeOf(nd.X), types.RelativeTo(n.pkg.types))+"{...} may heap-allocate on the hot path",
					hint("store the value inline, or recycle records through a free list"))
			}
		case *ast.FuncLit:
			if cap := captured(info, n.decl, nd); cap != "" {
				report(nd.Pos(), RuleHotAlloc,
					"function literal captures "+cap+" and allocates on the hot path",
					hint("pass the value as a parameter or use a method value on a preallocated receiver"))
			}
		case *ast.BinaryExpr:
			if nd.Op == token.ADD && isString(info.TypeOf(nd)) && inLoop(stack) {
				report(nd.Pos(), RuleHotAlloc,
					"string concatenation in a loop allocates on the hot path",
					hint("use a preallocated []byte scratch buffer"))
			}
		case *ast.AssignStmt:
			if nd.Tok == token.ADD_ASSIGN && len(nd.Lhs) == 1 &&
				isString(info.TypeOf(nd.Lhs[0])) && inLoop(stack) {
				report(nd.Pos(), RuleHotAlloc,
					"string concatenation in a loop allocates on the hot path",
					hint("use a preallocated []byte scratch buffer"))
			}
		}
		return true
	})
}

// checkCallBoxing flags arguments boxed into interface parameters and
// single-argument interface conversions.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, report reportFunc, hint func(string) string) {
	flag := func(arg ast.Expr, at types.Type) {
		report(arg.Pos(), RuleHotAlloc,
			"boxing "+at.String()+" into an interface allocates on the hot path",
			hint("pass a pointer, or keep the value out of interface-typed slots"))
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			at := info.TypeOf(call.Args[0])
			if isIface(tv.Type) && boxes(at) {
				flag(call.Args[0], at)
			}
		}
		return
	}
	sig, ok := typeAsSignature(info.TypeOf(call.Fun))
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt, ok := paramType(sig, i, call.Ellipsis.IsValid())
		if !ok || !isIface(pt) {
			continue
		}
		if at := info.TypeOf(arg); boxes(at) {
			flag(arg, at)
		}
	}
}

// boxes reports whether storing a value of type t in an interface
// allocates: anything but a pointer-shaped value or an existing
// interface does.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

func isIface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// builtinName returns "make"/"append"/... when call invokes a builtin,
// else "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// boundedTargets collects append targets proven bounded inside decl:
// every expression assigned from an array-backed reslice a[:0], the
// fixed-capacity scratch idiom (append then writes through the array;
// it cannot grow past the array without the reslice being rebound,
// which this function would also see).
func boundedTargets(info *types.Info, decl *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(decl, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
			if !ok || sl.Low != nil || !isZeroLit(sl.High) {
				continue
			}
			t := info.TypeOf(sl.X)
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if t == nil {
				continue
			}
			if _, isArr := t.Underlying().(*types.Array); isArr {
				if k := exprKey(as.Lhs[i]); k != "" {
					out[k] = true
				}
			}
		}
		return true
	})
	return out
}

// isScratchReslice recognizes append's scratch-reuse idiom: the first
// argument is an s[:0] reslice, so the append writes into s's existing
// backing array and only grows past the historical high-water mark —
// amortized zero at steady state.
func isScratchReslice(e ast.Expr) bool {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	return ok && sl.Low == nil && isZeroLit(sl.High)
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// exprKey renders an ident/selector chain ("p.Decoded") for structural
// comparison; "" for shapes the bounded-append proof does not model.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// captured returns the name of the first enclosing local a function
// literal references, or "" when the literal is capture-free (the
// compiler can keep those static).
func captured(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing declaration but
		// outside this literal.
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

// inLoop reports whether the innermost frames of the ancestor stack sit
// inside a for/range statement of the same function (a nested FuncLit
// resets the search: its body is a fresh frame).
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// onAbortPath reports whether the current node (stack top) sits inside
// a `return` whose last value is a non-nil error, or inside panic's
// arguments. Those paths abort the operation — the allocation never
// happens at steady state, so fmt.Errorf detail on them stays free.
func onAbortPath(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ReturnStmt:
			if len(anc.Results) == 0 {
				return false
			}
			last := anc.Results[len(anc.Results)-1]
			if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
				return false
			}
			t := info.TypeOf(last)
			return t != nil && types.Implements(t, errorIface)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(anc.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		case *ast.FuncLit:
			return false
		}
	}
	return false
}
