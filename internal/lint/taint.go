package lint

import "strings"

// unreached is the taint depth of a function with no path to a source.
const unreached = 1 << 30

// taintKinds are the nondeterminism classes rule taintreach tracks,
// checked in a fixed order so findings are deterministic.
var taintKinds = []struct {
	kind string
	noun string
}{
	{"wallclock", "the wall clock"},
	{"globalrand", "the global math/rand generator"},
	{"goroutine", "a goroutine spawn"},
}

// taintReach reports sim-boundary functions that can reach a
// nondeterminism source through any call chain, including chains that
// leave the boundary and come back — the wrapper loophole the
// per-package rules cannot see. Only the frontier is reported: a boundary
// function is a finding when it holds the source itself or when a
// tainted callee lies outside the boundary; a boundary caller of a
// reported boundary function is not re-reported, so each chain yields
// one actionable finding.
func taintReach(g *graph, report reportFunc) {
	for _, tk := range taintKinds {
		depths := taintDepths(g, tk.kind)
		for _, n := range g.nodes {
			if !inDirs(n.rel, simBoundary) {
				continue
			}
			d, tainted := depths[n]
			if !tainted {
				continue
			}
			direct := d == 0
			frontier := direct
			if !frontier {
				for _, c := range n.out {
					if _, ok := depths[c]; ok && !inDirs(c.rel, simBoundary) {
						frontier = true
						break
					}
				}
			}
			if !frontier {
				continue
			}
			chain, src := taintChain(n, depths, tk.kind)
			report(n.decl.Name.Pos(), RuleTaintReach,
				"sim-boundary function "+declName(n.fn)+" reaches "+tk.noun+" ("+src.desc+")",
				"call chain: "+strings.Join(chain, " -> ")+" -> "+src.desc+
					" at "+g.shortPos(src.pos)+
					"; keep "+tk.noun+" out of replayed code or add //fairlint:allow taintreach <reason>")
		}
	}
}

// taintDepths computes, for one source kind, each node's distance to
// the nearest source: 0 for a direct source, else 1 + the minimum over
// callees. Plain Bellman-Ford relaxation over the sorted node list; the
// fixpoint is unique, so iteration order only affects speed.
func taintDepths(g *graph, kind string) map[*fnode]int {
	depths := map[*fnode]int{}
	get := func(n *fnode) int {
		if d, ok := depths[n]; ok {
			return d
		}
		return unreached
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			best := unreached
			if hasSource(n, kind) {
				best = 0
			}
			for _, c := range n.out {
				if d := get(c); d < unreached && d+1 < best {
					best = d + 1
				}
			}
			if best < get(n) {
				depths[n] = best
				changed = true
			}
		}
	}
	return depths
}

// taintChain reconstructs one shortest source path from n, choosing the
// key-smallest callee at every step so the printed chain is stable.
func taintChain(n *fnode, depths map[*fnode]int, kind string) ([]string, source) {
	chain := []string{n.key}
	cur := n
	for depths[cur] > 0 {
		next := cur
		for _, c := range cur.out {
			if d, ok := depths[c]; ok && d == depths[cur]-1 {
				next = c
				break // n.out is sorted by key; first match is canonical
			}
		}
		cur = next
		chain = append(chain, cur.key)
	}
	return chain, firstSource(cur, kind)
}

func hasSource(n *fnode, kind string) bool {
	for _, s := range n.sources {
		if s.kind == kind {
			return true
		}
	}
	return false
}

// firstSource returns n's position-first direct source of the kind.
func firstSource(n *fnode, kind string) source {
	for _, s := range n.sources {
		if s.kind == kind {
			return s
		}
	}
	return source{kind: kind, desc: "?", pos: n.decl.Pos()}
}
