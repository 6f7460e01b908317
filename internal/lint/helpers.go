package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// inDirs reports whether module-relative package dir rel is one of (or
// nested under one of) the listed dirs.
func inDirs(rel string, dirs []string) bool {
	for _, d := range dirs {
		d = strings.TrimSuffix(strings.TrimPrefix(d, "./"), "/")
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtin,
// dynamic, or conversion calls. Works for pkg.F, method calls, and
// dot-imported F.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is a package-level function (no receiver)
// of the package with the given import path.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ioWriterIface is a structurally-built io.Writer so we can test
// types.Implements without importing io's type data.
var ioWriterIface = func() *types.Interface {
	write := types.NewFunc(token.NoPos, nil, "Write", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
		),
		false))
	iface := types.NewInterfaceType([]*types.Func{write}, nil)
	iface.Complete()
	return iface
}()

// implementsWriter reports whether t (or *t) satisfies io.Writer.
func implementsWriter(t types.Type) bool {
	return t != nil && implementsEither(t, ioWriterIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && implementsEither(t, errorIface)
}

// implementsEither reports whether t or *t satisfies iface.
func implementsEither(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal containing pos, or nil if pos is at package scope.
func enclosingFuncBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			// Innermost wins: later (nested) matches are smaller.
			if best == nil || (body.Pos() >= best.Pos() && body.End() <= best.End()) {
				best = body
			}
		}
		return true
	})
	return best
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
