package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// source is one direct nondeterminism source inside a function body.
type source struct {
	kind string // "wallclock", "globalrand", "goroutine"
	desc string // e.g. "time.Now", "rand.Intn", "go statement"
	pos  token.Pos
}

// fnode is one declared module function (or method) in the call graph.
// Function literals have no node of their own: a closure's body is
// attributed to the function that lexically declares it, so whatever
// the closure does is charged where the closure is written — the
// actionable position — rather than at an unknowable dynamic call site.
type fnode struct {
	key     string // deterministic display/sort key, e.g. "internal/sim.(*Sim).At"
	rel     string // module-relative package dir
	pkg     *loadedPkg
	fn      *types.Func
	decl    *ast.FuncDecl
	out     []*fnode // callees, deduped, sorted by key
	outSet  map[*fnode]bool
	hot     bool // carries a //fairbench:hotpath annotation
	sources []source
}

func (n *fnode) addEdge(to *fnode) {
	if to == nil || to == n || n.outSet[to] {
		return
	}
	n.outSet[to] = true
	n.out = append(n.out, to)
}

// methodEntry indexes one concrete method for class-hierarchy dispatch
// resolution.
type methodEntry struct {
	rel   string
	named *types.Named
	fn    *types.Func
}

// graph is the whole-program call graph plus the indexes the analyzers
// share.
type graph struct {
	root    string // analyzed tree root, for relative positions
	fset    *token.FileSet
	pkgs    []*loadedPkg
	nodes   []*fnode // sorted by key
	byFn    map[*types.Func]*fnode
	methods []methodEntry
	// closure maps a package rel to the set of module rels it imports,
	// transitively, including itself. Dynamic-dispatch targets are
	// pruned to the caller's closure: a concrete type the caller's
	// package cannot name is exceedingly unlikely to be its dynamic
	// callee, and admitting all implementers drowns the boundary in
	// phantom paths (see DESIGN.md §6 for the precision argument).
	closure map[string]map[string]bool
}

// buildGraph constructs nodes for every declared function with a body,
// then adds edges: static calls, interface-method calls resolved by
// pruned CHA, methods made callable by boxing a concrete value into an
// interface argument, and address-taken function references (a
// function passed as a value is assumed called by whoever takes it).
// Calls through plain function-typed values add no edges — the closure
// attribution rule above covers the common callback shapes.
func buildGraph(root string, pkgs []*loadedPkg, fset *token.FileSet) *graph {
	g := &graph{
		root:    root,
		fset:    fset,
		pkgs:    pkgs,
		byFn:    map[*types.Func]*fnode{},
		closure: map[string]map[string]bool{},
	}

	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			hotLines := hotpathLines(fset, f)
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				key := declName(fn)
				if pkg.rel != "." {
					key = pkg.rel + "." + key
				}
				n := &fnode{
					key:    key,
					rel:    pkg.rel,
					pkg:    pkg,
					fn:     fn,
					decl:   decl,
					outSet: map[*fnode]bool{},
					hot:    isHotpathDecl(fset, hotLines, decl),
				}
				g.byFn[fn] = n
				g.nodes = append(g.nodes, n)
			}
		}
		g.indexMethods(pkg)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].key < g.nodes[j].key })
	sort.Slice(g.methods, func(i, j int) bool {
		a, b := g.methods[i], g.methods[j]
		if a.rel != b.rel {
			return a.rel < b.rel
		}
		if a.named.Obj().Name() != b.named.Obj().Name() {
			return a.named.Obj().Name() < b.named.Obj().Name()
		}
		return a.fn.Name() < b.fn.Name()
	})
	g.buildClosure()

	for _, n := range g.nodes {
		g.scanBody(n)
		sort.Slice(n.out, func(i, j int) bool { return n.out[i].key < n.out[j].key })
		sort.Slice(n.sources, func(i, j int) bool { return n.sources[i].pos < n.sources[j].pos })
	}
	return g
}

// declName renders a function's display name without the package
// prefix: "At" for a function, "(*Sim).At" for a method.
func declName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		ptr = "*"
		t = p.Elem()
	}
	name := "?"
	if named, isNamed := t.(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	return "(" + ptr + name + ")." + fn.Name()
}

// indexMethods records every concrete method of every package-scope
// named type, for dynamic-dispatch resolution.
func (g *graph) indexMethods(pkg *loadedPkg) {
	if pkg.types == nil {
		return
	}
	scope := pkg.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			g.methods = append(g.methods, methodEntry{rel: pkg.rel, named: named, fn: named.Method(i)})
		}
	}
}

// buildClosure computes each package's transitive module-import set.
func (g *graph) buildClosure() {
	byPath := map[string]string{} // import path -> rel
	direct := map[string][]string{}
	for _, pkg := range g.pkgs {
		byPath[pkg.importPath] = pkg.rel
	}
	for _, pkg := range g.pkgs {
		seen := map[string]bool{}
		for _, f := range pkg.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if rel, ok := byPath[path]; ok && !seen[rel] {
					seen[rel] = true
					direct[pkg.rel] = append(direct[pkg.rel], rel)
				}
			}
		}
	}
	var visit func(rel string, set map[string]bool)
	visit = func(rel string, set map[string]bool) {
		if set[rel] {
			return
		}
		set[rel] = true
		for _, dep := range direct[rel] {
			visit(dep, set)
		}
	}
	for _, pkg := range g.pkgs {
		set := map[string]bool{}
		visit(pkg.rel, set)
		g.closure[pkg.rel] = set
	}
}

// scanBody walks one declaration (including nested function literals)
// and records direct taint sources, call edges, dispatch edges, and
// address-taken edges.
func (g *graph) scanBody(n *fnode) {
	info := n.pkg.info
	// Idents consumed as the Fun of a call; references outside this set
	// are address-taken uses.
	calleeIdents := map[*ast.Ident]bool{}
	ast.Inspect(n.decl, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				calleeIdents[fun] = true
			case *ast.SelectorExpr:
				calleeIdents[fun.Sel] = true
			}
		}
		return true
	})

	ast.Inspect(n.decl, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.GoStmt:
			n.sources = append(n.sources, source{
				kind: "goroutine", desc: "go statement", pos: nd.Pos(),
			})
		case *ast.CallExpr:
			g.callEdges(n, nd)
		case *ast.Ident:
			if calleeIdents[nd] {
				return true
			}
			if fn, ok := info.Uses[nd].(*types.Func); ok {
				n.addEdge(g.byFn[origin(fn)])
			}
		}
		return true
	})
}

func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// callEdges resolves one call expression into graph edges and direct
// taint sources.
func (g *graph) callEdges(n *fnode, call *ast.CallExpr) {
	info := n.pkg.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. An interface conversion makes the operand's
		// matching methods dynamically callable.
		if len(call.Args) == 1 {
			g.boxingEdges(n, tv.Type, info.TypeOf(call.Args[0]))
		}
		return
	}

	if callee := calleeFunc(info, call); callee != nil {
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				g.dispatchEdges(n, iface, callee.Name())
			} else {
				n.addEdge(g.byFn[origin(callee)])
			}
		} else {
			if target := g.byFn[origin(callee)]; target != nil {
				n.addEdge(target)
			} else {
				g.externalTaint(n, callee, call)
			}
		}
	}

	// Boxing a concrete value into an interface parameter makes the
	// value's matching methods callable by the callee.
	if sig, ok := typeAsSignature(info.TypeOf(call.Fun)); ok {
		for i, arg := range call.Args {
			pt, ok := paramType(sig, i, call.Ellipsis.IsValid())
			if !ok {
				continue
			}
			if _, isIface := pt.Underlying().(*types.Interface); isIface {
				g.boxingEdges(n, pt, info.TypeOf(arg))
			}
		}
	}
}

// externalTaint checks a call that leaves the module against the
// nondeterminism primitives.
func (g *graph) externalTaint(n *fnode, callee *types.Func, call *ast.CallExpr) {
	pkg := callee.Pkg()
	if pkg == nil {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return // methods on vetted instances (e.g. *rand.Rand) are fine
	}
	switch {
	case pkg.Path() == "time" && wallclockFuncs[callee.Name()]:
		n.sources = append(n.sources, source{
			kind: "wallclock", desc: "time." + callee.Name(), pos: call.Pos(),
		})
	case isRandPath(pkg.Path()) && !randExemptFuncs[callee.Name()]:
		n.sources = append(n.sources, source{
			kind: "globalrand", desc: "rand." + callee.Name(), pos: call.Pos(),
		})
	}
}

// dispatchEdges links an interface-method call to every concrete
// module implementation visible from the caller's import closure.
func (g *graph) dispatchEdges(n *fnode, iface *types.Interface, name string) {
	visible := g.closure[n.rel]
	for _, m := range g.methods {
		if m.fn.Name() != name || !visible[m.rel] {
			continue
		}
		if implementsEither(m.named, iface) {
			n.addEdge(g.byFn[origin(m.fn)])
		}
	}
}

// boxingEdges links a caller to the methods of a concrete type it
// boxes into an interface: once boxed, any of the interface's methods
// may be invoked on it by code the graph cannot see.
func (g *graph) boxingEdges(n *fnode, ifaceType, argType types.Type) {
	if argType == nil {
		return
	}
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	if _, already := argType.Underlying().(*types.Interface); already {
		return // interface-to-interface: no new concrete methods exposed
	}
	if !implementsEither(argType, iface) {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i).Name()
		obj, _, _ := types.LookupFieldOrMethod(argType, true, n.fn.Pkg(), want)
		if m, ok := obj.(*types.Func); ok {
			n.addEdge(g.byFn[origin(m)])
		}
	}
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// paramType returns the static type of argument i of a call to sig,
// expanding variadics. ok is false when the argument corresponds to a
// `slice...` spread (no boxing happens there).
func paramType(sig *types.Signature, i int, spread bool) (types.Type, bool) {
	params := sig.Params()
	if sig.Variadic() {
		last := params.Len() - 1
		if i >= last {
			if spread {
				return nil, false
			}
			s, ok := params.At(last).Type().(*types.Slice)
			if !ok {
				return nil, false
			}
			return s.Elem(), true
		}
		return params.At(i).Type(), true
	}
	if i >= params.Len() {
		return nil, false
	}
	return params.At(i).Type(), true
}

// shortPos renders a position as "file:line" relative to the analyzed
// root, for call-chain hints.
func (g *graph) shortPos(pos token.Pos) string {
	p := g.fset.Position(pos)
	return relFile(g.root, p.Filename) + ":" + strconv.Itoa(p.Line)
}
