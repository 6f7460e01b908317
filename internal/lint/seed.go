package lint

import (
	"go/ast"
	"go/types"
)

// seedProv enforces seed provenance: every RNG constructed anywhere in
// the module must be seeded by a value that dataflows from a parameter
// (a Spec field, a trial seed, an operator flag) — never from a bare
// literal, a named constant, or a package variable. A literal seed
// works, reproduces, and silently decouples the experiment from the
// replication machinery: replays with a different --seed keep using the
// hardcoded value and the "independent" trials are the same trial.
//
// The check is a backward dataflow over the constructing function:
// walk the seed expression through local assignments until hitting
// roots. Parameters, receivers, their fields, flag.* results, and
// values ranged from provenance-ok sources are good roots; literals,
// consts, and package vars are violations. Expression shapes the
// walker does not model are accepted (default-permissive): the rule
// only reports seeds it can prove never depend on the caller.
func seedProv(g *graph, report reportFunc) {
	for _, n := range g.nodes {
		sp := newSeedPass(n.pkg, n.decl)
		sp.checkCalls(n.decl, report)
	}
	// Package-level `var r = rand.New(rand.NewSource(42))` initializers
	// run outside any function; check them with no parameter roots.
	for _, pkg := range g.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					sp := newSeedPass(pkg, nil)
					for _, v := range vs.Values {
						sp.checkCalls(v, report)
					}
				}
			}
		}
	}
}

type seedPass struct {
	pkg     *loadedPkg
	params  map[types.Object]bool
	assigns map[types.Object][]ast.Expr
}

// newSeedPass indexes the roots (params, receivers, results — of the
// declaration and of every function literal inside it) and every local
// assignment, so provOK can chase idents backward.
func newSeedPass(pkg *loadedPkg, root ast.Node) *seedPass {
	sp := &seedPass{
		pkg:     pkg,
		params:  map[types.Object]bool{},
		assigns: map[types.Object][]ast.Expr{},
	}
	if root == nil {
		return sp
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.info.Defs[name]; obj != nil {
					sp.params[obj] = true
				}
			}
		}
	}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		if obj := identObj(pkg.info, id); obj != nil {
			sp.assigns[obj] = append(sp.assigns[obj], rhs)
		}
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncDecl:
			addFields(nd.Recv)
			addFields(nd.Type.Params)
			addFields(nd.Type.Results)
		case *ast.FuncLit:
			addFields(nd.Type.Params)
			addFields(nd.Type.Results)
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if len(nd.Rhs) == len(nd.Lhs) {
					record(id, nd.Rhs[i])
				} else if len(nd.Rhs) == 1 {
					record(id, nd.Rhs[0]) // multi-value call: chase the call
				}
			}
		case *ast.ValueSpec:
			for i, name := range nd.Names {
				if len(nd.Values) == len(nd.Names) {
					record(name, nd.Values[i])
				} else if len(nd.Values) == 1 {
					record(name, nd.Values[0])
				}
			}
		case *ast.RangeStmt:
			if id, ok := nd.Key.(*ast.Ident); ok && nd.Key != nil {
				record(id, nd.X)
			}
			if id, ok := nd.Value.(*ast.Ident); ok && nd.Value != nil {
				record(id, nd.X)
			}
		}
		return true
	})
	return sp
}

// checkCalls walks root for RNG-constructor calls and reports each
// argument that provably never derives from a parameter.
func (sp *seedPass) checkCalls(root ast.Node, report reportFunc) {
	ast.Inspect(root, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(sp.pkg.info, call)
		if callee == nil || !isSeedCtor(callee) {
			return true
		}
		for _, arg := range call.Args {
			if !sp.provOK(arg, map[types.Object]bool{}) {
				report(arg.Pos(), RuleSeedProv,
					"seed for "+callee.Pkg().Name()+"."+callee.Name()+" does not derive from a parameter",
					"thread the seed from the Spec/TrialSeed/flag that reaches this code; "+
						"a hardcoded seed decouples the experiment from replication "+
						"(or add //fairlint:allow seedprov <reason>)")
				break
			}
		}
		return true
	})
}

// isSeedCtor reports whether fn constructs an RNG whose arguments must
// carry seed provenance: the math/rand (v1 and v2) constructor family,
// plus this module's sim.NewRNG and stats.NewRNG.
func isSeedCtor(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch pkg.Name() {
	case "rand":
		return fn.Name() == "New" || randSourceCtors[fn.Name()]
	case "sim", "stats":
		return fn.Name() == "NewRNG"
	}
	return false
}

// provOK reports whether e can carry caller-supplied provenance.
// visiting breaks assignment cycles (a var transitively assigned from
// itself is accepted: some other root must have fed the cycle).
func (sp *seedPass) provOK(e ast.Expr, visiting map[types.Object]bool) bool {
	info := sp.pkg.info
	switch e := e.(type) {
	case *ast.BasicLit:
		return false
	case *ast.Ident:
		obj := identObj(info, e)
		switch o := obj.(type) {
		case *types.Const:
			return false
		case *types.Var:
			if sp.params[o] || o.IsField() {
				return true
			}
			if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
				return false // package variable: fixed at init, not threaded
			}
			if visiting[o] {
				return true
			}
			visiting[o] = true
			rhss := sp.assigns[o]
			if len(rhss) == 0 {
				return true // declared elsewhere (e.g. closure capture): permissive
			}
			for _, r := range rhss {
				if !sp.provOK(r, visiting) {
					return false
				}
			}
			return true
		default:
			return true // funcs, types, nil
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				switch info.Uses[e.Sel].(type) {
				case *types.Const, *types.Var:
					return false // qualified package const/var
				}
				return true
			}
		}
		return sp.provOK(e.X, visiting) // field of a provenance-ok value
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sp.provOK(e.Args[0], visiting) // conversion
		}
		if callee := calleeFunc(info, e); callee != nil {
			if callee.Pkg() != nil && callee.Pkg().Path() == "flag" {
				return true // operator-supplied
			}
			if isSeedCtor(callee) {
				return true // nested constructor: checked at its own site
			}
		}
		return true // arbitrary derivation (MixSeed, Derive, ...): permissive
	case *ast.ParenExpr:
		return sp.provOK(e.X, visiting)
	case *ast.UnaryExpr:
		return sp.provOK(e.X, visiting)
	case *ast.StarExpr:
		return sp.provOK(e.X, visiting)
	case *ast.BinaryExpr:
		// Mixing a root with a literal (seed ^ 0x9e37...) is derivation,
		// not hardcoding; one provenance-ok operand suffices.
		return sp.provOK(e.X, visiting) || sp.provOK(e.Y, visiting)
	case *ast.IndexExpr:
		return sp.provOK(e.X, visiting)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if sp.provOK(elt, visiting) {
				return true
			}
		}
		return false // all-literal composite (e.g. a [32]byte ChaCha8 key)
	default:
		return true
	}
}
