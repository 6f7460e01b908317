package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// simconc forbids concurrency constructs inside the sim boundary's
// deterministic event-loop packages: go statements, channel types and
// operations (send, receive, close, select), and any use of sync or
// sync/atomic. Those packages replay seeded virtual-time schedules; a
// single goroutine or channel would reintroduce scheduler nondeterminism.
func simconc(p *pass) {
	if !inDirs(p.rel, simBoundary) {
		return
	}
	const hint = "keep event-loop packages single-threaded; concurrency belongs in cmd/ drivers"
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.report(n.Pos(), RuleSimConc, "go statement in a deterministic event-loop package", hint)
			case *ast.SelectStmt:
				p.report(n.Pos(), RuleSimConc, "select statement in a deterministic event-loop package", hint)
			case *ast.SendStmt:
				p.report(n.Pos(), RuleSimConc, "channel send in a deterministic event-loop package", hint)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.report(n.Pos(), RuleSimConc, "channel receive in a deterministic event-loop package", hint)
				}
			case *ast.ChanType:
				p.report(n.Pos(), RuleSimConc, "channel type in a deterministic event-loop package", hint)
			case *ast.RangeStmt:
				if t := p.info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						p.report(n.Pos(), RuleSimConc, "range over a channel in a deterministic event-loop package", hint)
					}
				}
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		switch obj.Pkg().Path() {
		case "sync", "sync/atomic":
			p.report(id.Pos(), RuleSimConc,
				"use of "+obj.Pkg().Path()+"."+obj.Name()+" in a deterministic event-loop package",
				"remove locking/atomics; the event loop is single-threaded by construction")
		}
	}
}
