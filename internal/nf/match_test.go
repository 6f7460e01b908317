package nf_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/testbed"
)

// scan is the reference first-match classifier: the linear scan that
// LinearMatcher charges for but no longer runs.
func scan(rules []nf.Rule, ft packet.FiveTuple) (nf.Rule, uint64, bool) {
	for i, r := range rules {
		if r.Matches(ft) {
			return r, uint64(i+1) * nf.CyclesPerLinearRule, true
		}
	}
	return nf.Rule{}, uint64(len(rules)) * nf.CyclesPerLinearRule, false
}

// checkAgainstScan compiles rules and compares Match with the scan on
// every tuple given plus the corners of every rule's ranges, where an
// off-by-one in the index would show.
func checkAgainstScan(t *testing.T, rules []nf.Rule, tuples []packet.FiveTuple) {
	t.Helper()
	m := nf.NewLinearMatcher(rules)
	if m.Len() != len(rules) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(rules))
	}
	for _, r := range rules {
		sLo, sHi := prefixEnds(r.Src)
		dLo, dHi := prefixEnds(r.Dst)
		tuples = append(tuples,
			packet.FiveTuple{Src: sLo, Dst: dLo, SrcPort: r.SrcPorts.Lo, DstPort: r.DstPorts.Lo, Proto: r.Proto},
			packet.FiveTuple{Src: sHi, Dst: dHi, SrcPort: r.SrcPorts.Hi, DstPort: r.DstPorts.Hi, Proto: r.Proto},
			packet.FiveTuple{Src: step(sLo, -1), Dst: step(dHi, 1), SrcPort: r.SrcPorts.Lo - 1, DstPort: r.DstPorts.Hi + 1, Proto: r.Proto + 1},
			packet.FiveTuple{Src: step(sHi, 1), Dst: step(dLo, -1), SrcPort: r.SrcPorts.Hi + 1, DstPort: r.DstPorts.Lo - 1, Proto: r.Proto - 1},
		)
	}
	for _, ft := range tuples {
		wr, wc, wok := scan(rules, ft)
		gr, gc, gok := m.Match(ft)
		if gr != wr || gc != wc || gok != wok {
			t.Fatalf("flow %+v: Match = (rule %+v, %d cycles, %v), scan = (rule %+v, %d cycles, %v)",
				ft, gr, gc, gok, wr, wc, wok)
		}
	}
}

// prefixEnds returns the lowest and highest address a prefix covers
// (the address itself for a prefix that covers none).
func prefixEnds(p nf.Prefix) (lo, hi packet.Addr4) {
	a := p.Addr.Uint32()
	switch {
	case p.Bits == 0:
		return nf.AddrFrom(0), nf.AddrFrom(^uint32(0))
	case p.Bits > 32:
		return p.Addr, p.Addr
	}
	host := ^uint32(0) >> p.Bits
	return nf.AddrFrom(a &^ host), nf.AddrFrom(a | host)
}

func step(a packet.Addr4, d int32) packet.Addr4 {
	return nf.AddrFrom(a.Uint32() + uint32(d))
}

// ruleBytes is the size of one rule in the fuzz encoding: source and
// destination address and prefix length, source and destination port
// bounds, and protocol.
const ruleBytes = 19

// maxFuzzRules caps the rules decoded from one fuzz input.
const maxFuzzRules = 200

// decodeRules reads up to maxFuzzRules rules from data. Prefix lengths
// are taken mod 40, so lengths past 32 (which match nothing) occur.
func decodeRules(data []byte) []nf.Rule {
	var rules []nf.Rule
	for i := 0; len(data) >= ruleBytes && i < maxFuzzRules; i++ {
		rules = append(rules, nf.Rule{
			ID:       i,
			Src:      nf.Prefix{Addr: packet.Addr4(data[0:4]), Bits: data[4] % 40},
			Dst:      nf.Prefix{Addr: packet.Addr4(data[5:9]), Bits: data[9] % 40},
			SrcPorts: nf.PortRange{Lo: binary.BigEndian.Uint16(data[10:]), Hi: binary.BigEndian.Uint16(data[12:])},
			DstPorts: nf.PortRange{Lo: binary.BigEndian.Uint16(data[14:]), Hi: binary.BigEndian.Uint16(data[16:])},
			Proto:    data[18],
			Action:   nf.Verdict(i % 2),
		})
		data = data[ruleBytes:]
	}
	return rules
}

// encodeRules is decodeRules' inverse for prefix lengths below 40.
func encodeRules(rules []nf.Rule) []byte {
	var b []byte
	for _, r := range rules {
		b = append(b, r.Src.Addr[:]...)
		b = append(b, r.Src.Bits)
		b = append(b, r.Dst.Addr[:]...)
		b = append(b, r.Dst.Bits)
		b = binary.BigEndian.AppendUint16(b, r.SrcPorts.Lo)
		b = binary.BigEndian.AppendUint16(b, r.SrcPorts.Hi)
		b = binary.BigEndian.AppendUint16(b, r.DstPorts.Lo)
		b = binary.BigEndian.AppendUint16(b, r.DstPorts.Hi)
		b = append(b, r.Proto)
	}
	return b
}

// decodeTuples reads 13-byte five-tuples from data.
func decodeTuples(data []byte) []packet.FiveTuple {
	var out []packet.FiveTuple
	for ; len(data) >= 13; data = data[13:] {
		out = append(out, packet.FiveTuple{
			Src: packet.Addr4(data[0:4]), Dst: packet.Addr4(data[4:8]),
			SrcPort: binary.BigEndian.Uint16(data[8:]), DstPort: binary.BigEndian.Uint16(data[10:]),
			Proto: data[12],
		})
	}
	return out
}

func encodeTuple(ft packet.FiveTuple) []byte {
	b := append(ft.Src[:], ft.Dst[:]...)
	b = binary.BigEndian.AppendUint16(b, ft.SrcPort)
	b = binary.BigEndian.AppendUint16(b, ft.DstPort)
	return append(b, ft.Proto)
}

// edgeRules covers every corner of the rule grammar: /0, /32 and /33+
// prefixes, inverted (Lo > Hi) and {0, k} port ranges, exact ports, and
// protocols 0 (any), TCP, UDP and 255.
var edgeRules = []nf.Rule{
	{Src: nf.Prefix{Addr: packet.Addr4{10, 0, 0, 1}, Bits: 33}},
	{Dst: nf.Prefix{Addr: packet.Addr4{10, 0, 0, 1}, Bits: 39}, Proto: 255},
	{SrcPorts: nf.PortRange{Lo: 200, Hi: 100}},
	{DstPorts: nf.PortRange{Lo: 0, Hi: 1023}, Proto: packet.ProtoTCP},
	{Src: nf.Prefix{Addr: packet.Addr4{10, 0, 0, 1}, Bits: 32}, DstPorts: nf.PortRange{Lo: 53, Hi: 53}, Proto: packet.ProtoUDP},
	{Src: nf.Prefix{Addr: packet.Addr4{255, 255, 255, 255}, Bits: 32}, SrcPorts: nf.PortRange{Lo: 65535, Hi: 65535}},
	{Dst: nf.Prefix{Addr: packet.Addr4{128, 0, 0, 0}, Bits: 1}, SrcPorts: nf.PortRange{Lo: 0, Hi: 65535}, Proto: 255},
	{Src: nf.Prefix{Addr: packet.Addr4{0, 0, 0, 0}, Bits: 0}, Dst: nf.Prefix{Addr: packet.Addr4{10, 66, 7, 7}, Bits: 16}},
	{Proto: 0},
}

// canonicalRuleSets are the seed rule sets: the canonical firewall at
// filler depths around one mask word, and the benches' 1000-rule set.
func canonicalRuleSets() [][]nf.Rule {
	var sets [][]nf.Rule
	for _, n := range []int{0, 1, 50, 63, 64, 65} {
		sets = append(sets, testbed.FirewallRules(n))
	}
	return append(sets, nf.SyntheticRules(1000))
}

// FuzzLinearMatchEquivalence checks that the compiled first-match index
// returns the scan's rule, cycles and verdict for rules decoded from
// the input, on the input's tuples and every rule's corners.
func FuzzLinearMatchEquivalence(f *testing.F) {
	probe := encodeTuple(packet.FiveTuple{Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{192, 168, 1, 9}, SrcPort: 40000, DstPort: 443, Proto: packet.ProtoTCP})
	for _, rules := range canonicalRuleSets() {
		f.Add(encodeRules(rules[:min(len(rules), maxFuzzRules)]), probe)
	}
	f.Add(encodeRules(edgeRules), probe)
	f.Add(encodeRules(edgeRules[:1]), encodeTuple(packet.FiveTuple{Src: packet.Addr4{10, 0, 0, 1}, Proto: 0}))
	f.Add([]byte{}, probe)
	f.Fuzz(func(t *testing.T, ruleData, tupleData []byte) {
		checkAgainstScan(t, decodeRules(ruleData), decodeTuples(tupleData))
	})
}

// TestLinearMatcherAgreesWithScan runs the equivalence check over the
// seed rule sets in full (the fuzz decoder keeps only the first 200
// rules) and over random rule sets drawn around a few hot addresses and
// ports, so rules overlap.
func TestLinearMatcherAgreesWithScan(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	addrs := []uint32{0, 0x0a000001, 0x0a420000, 0x0a42ffff, 0xc0a80109, 0xffffffff}
	ports := []uint16{0, 1, 53, 80, 443, 2000, 65535}
	protos := []uint8{0, packet.ProtoTCP, packet.ProtoUDP, 255}
	addr := func() packet.Addr4 { return nf.AddrFrom(addrs[r.Intn(len(addrs))] ^ uint32(r.Intn(4))) }
	port := func() uint16 { return ports[r.Intn(len(ports))] + uint16(r.Intn(3)) }
	tuples := func(n int) []packet.FiveTuple {
		out := make([]packet.FiveTuple, n)
		for i := range out {
			out[i] = packet.FiveTuple{Src: addr(), Dst: addr(), SrcPort: port(), DstPort: port(), Proto: protos[r.Intn(len(protos))]}
		}
		return out
	}
	for _, rules := range append(canonicalRuleSets(), edgeRules) {
		checkAgainstScan(t, rules, tuples(200))
	}
	for set := 0; set < 100; set++ {
		rules := make([]nf.Rule, r.Intn(201))
		for i := range rules {
			rules[i] = nf.Rule{
				ID:       i,
				Src:      nf.Prefix{Addr: addr(), Bits: uint8(r.Intn(36))},
				Dst:      nf.Prefix{Addr: addr(), Bits: uint8(r.Intn(36))},
				SrcPorts: nf.PortRange{Lo: port(), Hi: port()},
				DstPorts: nf.PortRange{Lo: port(), Hi: port()},
				Proto:    protos[r.Intn(len(protos))],
			}
		}
		checkAgainstScan(t, rules, tuples(200))
	}
}
