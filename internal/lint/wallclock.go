package lint

import (
	"go/types"
)

// wallclockFuncs are the package-level time functions that read or wait on
// the wall clock. Types and constants (time.Duration, time.Millisecond)
// are fine: they carry no nondeterminism.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// wallclock flags wall-clock reads outside the allowlisted packages.
// Virtual time must come from the sim clock so seeded replay is
// byte-identical; wall time is operational only (runner deadlines), and
// each exception elsewhere needs a //fairlint:allow wallclock <reason>.
func wallclock(p *pass) {
	if inDirs(p.rel, wallclockAllow) {
		return
	}
	for id, obj := range p.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || !isPkgFunc(fn, "time") || !wallclockFuncs[fn.Name()] {
			continue
		}
		p.report(id.Pos(), RuleWallclock,
			"wall-clock call time."+fn.Name()+" in deterministic code",
			"derive time from the sim clock, or justify with //fairlint:allow wallclock <reason>")
	}
}
