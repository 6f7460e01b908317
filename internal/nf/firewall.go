package nf

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fairbench/internal/packet"
)

// Prefix is an IPv4 prefix for rule matching.
type Prefix struct {
	Addr packet.Addr4
	Bits uint8 // 0 matches everything
}

// Contains reports whether the prefix covers addr.
func (p Prefix) Contains(addr packet.Addr4) bool {
	if p.Bits == 0 {
		return true
	}
	if p.Bits > 32 {
		return false
	}
	shift := 32 - uint32(p.Bits)
	return addr.Uint32()>>shift == p.Addr.Uint32()>>shift
}

// String renders CIDR form.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// PortRange matches an inclusive port interval; the zero value (0,0)
// matches any port.
type PortRange struct {
	Lo, Hi uint16
}

// Any reports whether the range matches all ports.
func (r PortRange) Any() bool { return r.Lo == 0 && r.Hi == 0 }

// Contains reports whether the range covers port.
func (r PortRange) Contains(port uint16) bool {
	if r.Any() {
		return true
	}
	return port >= r.Lo && port <= r.Hi
}

// Rule is a classic 5-tuple firewall rule.
type Rule struct {
	Src, Dst Prefix
	SrcPorts PortRange
	DstPorts PortRange
	Proto    uint8 // 0 = any
	Action   Verdict
	// ID is an opaque rule identifier surfaced in match statistics.
	ID int
}

// Matches reports whether the rule covers the flow.
func (r Rule) Matches(ft packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	return r.Src.Contains(ft.Src) && r.Dst.Contains(ft.Dst) &&
		r.SrcPorts.Contains(ft.SrcPort) && r.DstPorts.Contains(ft.DstPort)
}

// Matcher classifies a flow against a rule set. Implementations also
// report the work performed so the cycle model reflects algorithmic
// differences (the DESIGN.md matcher ablation).
type Matcher interface {
	// Match returns the first matching rule and true, charging cycles.
	Match(ft packet.FiveTuple) (Rule, uint64, bool)
	// Len returns the number of installed rules.
	Len() int
}

// LinearMatcher is the textbook first-match classifier: rules in
// priority order, the first rule covering the flow wins, and the work
// charged is that of a scan examining every rule up to it. The scan
// itself is not executed: NewLinearMatcher compiles the rules into a
// bit-vector index (Lakshman & Stiliadis) that yields the same
// first-match index, so the cycle model keeps charging the scan while
// the simulator pays for a few binary searches.
type LinearMatcher struct {
	rules []Rule
	// words is the length of one rule bitmask: ⌈len(rules)/64⌉.
	words int
	// src, dst, srcPorts and dstPorts map a header value to the rules
	// whose range on that field covers it.
	src, dst, srcPorts, dstPorts rangeIndex
	// proto holds 256 rows of words: the rules covering each protocol.
	proto []uint64
}

// rangeIndex splits one header field into elementary intervals. Every
// value in [starts[j], starts[j+1]) is covered by the same rules, the
// set bits of masks[j*words:(j+1)*words].
type rangeIndex struct {
	starts []uint32 // ascending, starts[0] == 0
	masks  []uint64
}

// span is one rule's inclusive interval on a field; lo > hi is empty.
type span struct{ lo, hi uint32 }

// prefixSpan is the address interval a prefix covers.
func prefixSpan(p Prefix) span {
	if p.Bits > 32 {
		return span{1, 0}
	}
	host := ^uint32(0) >> p.Bits // all ones for /0, none for /32
	lo := p.Addr.Uint32() &^ host
	return span{lo, lo | host}
}

// portSpan is the port interval a range covers.
func portSpan(r PortRange) span {
	if r.Any() {
		return span{0, math.MaxUint16}
	}
	return span{uint32(r.Lo), uint32(r.Hi)}
}

// newRangeIndex compiles the rules' spans on one field whose values
// run up to top. Each rule's bit is toggled where its span starts and
// just past where it ends; a prefix XOR over the intervals then leaves
// it set exactly inside the span.
func newRangeIndex(spans []span, top uint32, words int) rangeIndex {
	starts := make([]uint32, 1, 2*len(spans)+1)
	for _, s := range spans {
		if s.lo > s.hi {
			continue
		}
		starts = append(starts, s.lo)
		if s.hi != top {
			starts = append(starts, s.hi+1)
		}
	}
	slices.Sort(starts)
	ix := rangeIndex{starts: slices.Compact(starts)}
	ix.masks = make([]uint64, len(ix.starts)*words)
	for i, s := range spans {
		if s.lo > s.hi {
			continue
		}
		w, bit := i/64, uint64(1)<<(i%64)
		ix.masks[ix.row(s.lo)*words+w] ^= bit
		if s.hi != top {
			ix.masks[ix.row(s.hi+1)*words+w] ^= bit
		}
	}
	for k := words; k < len(ix.masks); k++ {
		ix.masks[k] ^= ix.masks[k-words]
	}
	return ix
}

// row returns the interval holding v: the last j with starts[j] <= v.
func (ix *rangeIndex) row(v uint32) int {
	lo, hi := 0, len(ix.starts)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if ix.starts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// NewLinearMatcher copies rules in priority order and compiles the
// first-match index over them.
func NewLinearMatcher(rules []Rule) *LinearMatcher {
	n := len(rules)
	words := (n + 63) / 64
	m := &LinearMatcher{rules: append([]Rule(nil), rules...), words: words}
	spans := make([]span, 4*n)
	src, dst, sp, dp := spans[:n], spans[n:2*n], spans[2*n:3*n], spans[3*n:]
	wildcard := make([]uint64, words)
	for i, r := range rules {
		src[i], dst[i] = prefixSpan(r.Src), prefixSpan(r.Dst)
		sp[i], dp[i] = portSpan(r.SrcPorts), portSpan(r.DstPorts)
		if r.Proto == 0 {
			wildcard[i/64] |= 1 << (i % 64)
		}
	}
	m.src = newRangeIndex(src, math.MaxUint32, words)
	m.dst = newRangeIndex(dst, math.MaxUint32, words)
	m.srcPorts = newRangeIndex(sp, math.MaxUint16, words)
	m.dstPorts = newRangeIndex(dp, math.MaxUint16, words)
	m.proto = make([]uint64, 256*words)
	for p := 0; p < 256; p++ {
		copy(m.proto[p*words:], wildcard)
	}
	for i, r := range rules {
		if r.Proto != 0 {
			m.proto[int(r.Proto)*words+i/64] |= 1 << (i % 64)
		}
	}
	return m
}

// Len implements Matcher.
func (m *LinearMatcher) Len() int { return len(m.rules) }

// Match implements Matcher: first match wins, and the cycles charged
// grow with the number of rules a scan would examine to find it.
//
//fairbench:hotpath alloc gate row nf-firewall-process
func (m *LinearMatcher) Match(ft packet.FiveTuple) (Rule, uint64, bool) {
	w := m.words
	src := m.src.masks[m.src.row(ft.Src.Uint32())*w:]
	dst := m.dst.masks[m.dst.row(ft.Dst.Uint32())*w:]
	sp := m.srcPorts.masks[m.srcPorts.row(uint32(ft.SrcPort))*w:]
	dp := m.dstPorts.masks[m.dstPorts.row(uint32(ft.DstPort))*w:]
	proto := m.proto[int(ft.Proto)*w:]
	for k := 0; k < w; k++ {
		if hit := src[k] & dst[k] & sp[k] & dp[k] & proto[k]; hit != 0 {
			i := k*64 + bits.TrailingZeros64(hit)
			return m.rules[i], uint64(i+1) * CyclesPerLinearRule, true
		}
	}
	return Rule{}, uint64(len(m.rules)) * CyclesPerLinearRule, false
}

// tupleKey is an exact-match key under a specific mask group.
type tupleKey struct {
	src, dst         uint32
	srcPort, dstPort uint16
	proto            uint8
}

// maskGroup is one tuple space: all rules sharing a mask signature.
type maskGroup struct {
	srcBits, dstBits       uint8
	srcPortAny, dstPortAny bool
	protoAny               bool
	// pos maps a key to the position of the first rule holding it.
	pos map[tupleKey]int
}

func (g *maskGroup) key(ft packet.FiveTuple) tupleKey {
	k := tupleKey{}
	if g.srcBits > 0 {
		k.src = ft.Src.Uint32() >> (32 - uint32(g.srcBits))
	}
	if g.dstBits > 0 {
		k.dst = ft.Dst.Uint32() >> (32 - uint32(g.dstBits))
	}
	if !g.srcPortAny {
		k.srcPort = ft.SrcPort
	}
	if !g.dstPortAny {
		k.dstPort = ft.DstPort
	}
	if !g.protoAny {
		k.proto = ft.Proto
	}
	return k
}

// TupleSpaceMatcher implements tuple-space search (Srinivasan &
// Varghese): rules are grouped by mask signature and each group is one
// hash lookup. Match cost grows with the number of distinct mask
// groups, not the number of rules — the classic trade against linear
// scan. Port ranges other than any/exact are not supported by this
// matcher and are rejected at construction.
type TupleSpaceMatcher struct {
	groups []*maskGroup
	rules  []Rule
}

// NewTupleSpaceMatcher builds the tuple spaces. Rules with true port
// ranges (not any, not single-port) or prefixes longer than 32 bits
// return an error; among overlapping rules the lowest rule index wins.
func NewTupleSpaceMatcher(rules []Rule) (*TupleSpaceMatcher, error) {
	m := &TupleSpaceMatcher{rules: append([]Rule(nil), rules...)}
	byMask := make(map[string]*maskGroup)
	for i, r := range rules {
		if r.Src.Bits > 32 || r.Dst.Bits > 32 {
			return nil, fmt.Errorf("nf: tuple-space matcher: rule %d has prefix %s or %s longer than 32 bits", i, r.Src, r.Dst)
		}
		if !r.SrcPorts.Any() && r.SrcPorts.Lo != r.SrcPorts.Hi {
			return nil, fmt.Errorf("nf: tuple-space matcher: rule %d has src port range %d-%d (only any/exact supported)", i, r.SrcPorts.Lo, r.SrcPorts.Hi)
		}
		if !r.DstPorts.Any() && r.DstPorts.Lo != r.DstPorts.Hi {
			return nil, fmt.Errorf("nf: tuple-space matcher: rule %d has dst port range %d-%d (only any/exact supported)", i, r.DstPorts.Lo, r.DstPorts.Hi)
		}
		sig := fmt.Sprintf("%d/%d/%t/%t/%t", r.Src.Bits, r.Dst.Bits, r.SrcPorts.Any(), r.DstPorts.Any(), r.Proto == 0)
		g, ok := byMask[sig]
		if !ok {
			g = &maskGroup{
				srcBits: r.Src.Bits, dstBits: r.Dst.Bits,
				srcPortAny: r.SrcPorts.Any(), dstPortAny: r.DstPorts.Any(),
				protoAny: r.Proto == 0,
				pos:      make(map[tupleKey]int),
			}
			byMask[sig] = g
			m.groups = append(m.groups, g)
		}
		k := tupleKey{}
		if g.srcBits > 0 {
			k.src = r.Src.Addr.Uint32() >> (32 - uint32(g.srcBits))
		}
		if g.dstBits > 0 {
			k.dst = r.Dst.Addr.Uint32() >> (32 - uint32(g.dstBits))
		}
		if !g.srcPortAny {
			k.srcPort = r.SrcPorts.Lo
		}
		if !g.dstPortAny {
			k.dstPort = r.DstPorts.Lo
		}
		if !g.protoAny {
			k.proto = r.Proto
		}
		if _, dup := g.pos[k]; !dup {
			g.pos[k] = i // first (highest-priority) rule wins the slot
		}
	}
	return m, nil
}

// Len implements Matcher.
func (m *TupleSpaceMatcher) Len() int { return len(m.rules) }

// Match implements Matcher. All groups are probed (the standard
// algorithm must, to find the highest-priority match), costing one hash
// lookup each; the lowest rule index among hits wins.
func (m *TupleSpaceMatcher) Match(ft packet.FiveTuple) (Rule, uint64, bool) {
	cycles := uint64(len(m.groups)) * CyclesPerTupleGroup
	best := len(m.rules)
	for _, g := range m.groups {
		if i, ok := g.pos[g.key(ft)]; ok && i < best {
			best = i
		}
	}
	if best == len(m.rules) {
		return Rule{}, cycles, false
	}
	return m.rules[best], cycles, true
}

// Firewall is a stateless packet filter over a Matcher.
type Firewall struct {
	matcher Matcher
	// DefaultAction applies when no rule matches.
	DefaultAction Verdict
	// Dropped and Accepted count outcomes.
	Dropped, Accepted uint64
}

// NewFirewall builds a firewall with a default-drop policy. The name
// labels the instance at the call site only; nothing reads it back.
func NewFirewall(name string, m Matcher) *Firewall {
	return &Firewall{matcher: m, DefaultAction: Drop}
}

// Process implements Func: non-IPv4-TCP/UDP traffic is dropped (a
// firewall that cannot classify fails closed), otherwise the matcher
// decides.
//
//fairbench:hotpath alloc gate row nf-firewall-process
func (f *Firewall) Process(p *packet.Parser, _ []byte) (Result, error) {
	ft, ok := p.FiveTuple()
	if !ok {
		f.Dropped++
		return Result{Verdict: Drop, Cycles: CyclesParse}, nil
	}
	rule, cycles, matched := f.matcher.Match(ft)
	res := Result{Cycles: CyclesParse + cycles}
	if matched {
		res.Verdict = rule.Action
	} else {
		res.Verdict = f.DefaultAction
	}
	if res.Verdict == Drop {
		f.Dropped++
	} else {
		f.Accepted++
	}
	return res, nil
}
