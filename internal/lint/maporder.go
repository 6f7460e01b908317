package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder flags `range` over a map whose loop body makes iteration order
// observable: writing to an io.Writer (directly, via fmt.Fprint*/Sprint*,
// or by passing a writer to a helper) or appending to a slice declared
// outside the loop. The escaping-append case is cleared when a sort.* or
// slices.Sort* call on the same slice follows the loop in the enclosing
// function — the canonical collect-keys-then-sort idiom. Loops that only
// feed another map or set are order-insensitive and never flagged.
func maporder(p *pass) {
	for _, f := range p.files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(p, file, rs)
			return true
		})
	}
}

func checkMapRange(p *pass, file *ast.File, rs *ast.RangeStmt) {
	var writePos token.Pos = token.NoPos
	var writeWhat string
	type escAppend struct {
		pos token.Pos
		obj types.Object
	}
	var escapes []escAppend

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if writePos == token.NoPos {
				if what, ok := sensitiveWrite(p, n); ok {
					writePos, writeWhat = n.Pos(), what
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || builtinName(p.info, call) != "append" || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObj(p.info, id)
				if obj == nil {
					continue
				}
				if obj.Pos() < rs.Pos() || obj.Pos() >= rs.End() {
					escapes = append(escapes, escAppend{pos: n.Pos(), obj: obj})
				}
			}
		}
		return true
	})

	if writePos != token.NoPos {
		p.report(writePos, RuleMapOrder,
			"map iteration order reaches "+writeWhat+" inside the loop",
			"iterate sorted keys: collect them, sort.Strings(keys), then index the map")
		return
	}
	for _, esc := range escapes {
		if sortedAfter(p, file, rs, esc.obj) {
			continue
		}
		p.report(esc.pos, RuleMapOrder,
			"append to "+esc.obj.Name()+" leaks map iteration order out of the loop",
			"sort "+esc.obj.Name()+" (sort.Strings/sort.Slice) before it is consumed")
	}
}

// sensitiveWrite reports whether a call inside a map-range body makes
// iteration order observable, and names the sink for the message.
func sensitiveWrite(p *pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.info, call)
	if fn != nil && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		switch {
		case !isMethod && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Fprint") ||
				strings.HasPrefix(fn.Name(), "Sprint") ||
				strings.HasPrefix(fn.Name(), "Print") ||
				strings.HasPrefix(fn.Name(), "Append")):
			return "fmt." + fn.Name(), true
		case !isMethod && fn.Pkg().Path() == "io" && fn.Name() == "WriteString":
			return "io.WriteString", true
		case isMethod && (strings.HasPrefix(fn.Name(), "Write") || strings.HasPrefix(fn.Name(), "Print")):
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if implementsWriter(p.info.TypeOf(sel.X)) {
					return "an io.Writer method (" + fn.Name() + ")", true
				}
			}
		}
	}
	// A writer handed to any helper makes the helper's output order-dependent.
	for _, arg := range call.Args {
		t := p.info.TypeOf(arg)
		if t != nil && implementsWriter(t) {
			return "a helper taking an io.Writer", true
		}
	}
	return "", false
}

// sortFuncs are the stdlib sorting entry points that establish a
// deterministic order on a slice, keyed by "pkgpath.Func".
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true,
	"sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfter reports whether, later in the function enclosing rs, a
// stdlib sort call mentions obj — the collect-then-sort idiom that makes
// the escaped append order-safe.
func sortedAfter(p *pass, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	body := enclosingFuncBody(file, rs.Pos())
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(p.info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !sortFuncs[fn.Pkg().Path()+"."+fn.Name()] || !isPkgFunc(fn, fn.Pkg().Path()) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(p.info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
