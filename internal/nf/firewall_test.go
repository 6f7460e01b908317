package nf

import (
	"math/rand"
	"testing"

	"fairbench/internal/packet"
)

func pfx(a, b, c, d byte, bits uint8) Prefix {
	return Prefix{Addr: packet.Addr4{a, b, c, d}, Bits: bits}
}

// addrFrom builds an address from a big-endian integer.
func addrFrom(v uint32) packet.Addr4 {
	return packet.Addr4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func flow(src, dst packet.Addr4, sp, dp uint16, proto uint8) packet.FiveTuple {
	return packet.FiveTuple{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: proto}
}

var testRules = []Rule{
	{ID: 0, Src: pfx(10, 0, 0, 0, 8), Dst: pfx(192, 168, 1, 0, 24), DstPorts: PortRange{443, 443}, Proto: packet.ProtoTCP, Action: Accept},
	{ID: 1, Src: pfx(10, 0, 0, 0, 8), Dst: pfx(192, 168, 1, 0, 24), DstPorts: PortRange{53, 53}, Proto: packet.ProtoUDP, Action: Accept},
	{ID: 2, Src: pfx(10, 66, 0, 0, 16), Action: Drop}, // blocklisted subnet
	{ID: 3, Src: pfx(0, 0, 0, 0, 0), Dst: pfx(192, 168, 2, 0, 24), DstPorts: PortRange{80, 80}, Proto: packet.ProtoTCP, Action: Accept},
}

func TestPrefixContains(t *testing.T) {
	p := pfx(10, 1, 0, 0, 16)
	if !p.Contains(packet.Addr4{10, 1, 200, 3}) {
		t.Error("10.1.200.3 should match 10.1.0.0/16")
	}
	if p.Contains(packet.Addr4{10, 2, 0, 1}) {
		t.Error("10.2.0.1 should not match 10.1.0.0/16")
	}
	if !pfx(0, 0, 0, 0, 0).Contains(packet.Addr4{1, 2, 3, 4}) {
		t.Error("/0 matches everything")
	}
	if !pfx(10, 0, 0, 5, 32).Contains(packet.Addr4{10, 0, 0, 5}) {
		t.Error("/32 exact match")
	}
	if pfx(10, 0, 0, 5, 33).Contains(packet.Addr4{10, 0, 0, 5}) {
		t.Error("invalid bits should never match")
	}
	if got := pfx(10, 0, 0, 0, 8).String(); got != "10.0.0.0/8" {
		t.Errorf("Prefix string = %q", got)
	}
}

func TestPortRange(t *testing.T) {
	if !(PortRange{}).Any() || !(PortRange{}).Contains(12345) {
		t.Error("zero range matches any port")
	}
	r := PortRange{100, 200}
	if !r.Contains(100) || !r.Contains(200) || !r.Contains(150) {
		t.Error("inclusive bounds")
	}
	if r.Contains(99) || r.Contains(201) {
		t.Error("outside bounds")
	}
}

func TestLinearMatcherFirstMatchWins(t *testing.T) {
	m := NewLinearMatcher(testRules)
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Flow matching rule 0.
	ft := flow(packet.Addr4{10, 5, 5, 5}, packet.Addr4{192, 168, 1, 9}, 40000, 443, packet.ProtoTCP)
	r, cycles, ok := m.Match(ft)
	if !ok || r.ID != 0 {
		t.Fatalf("match = %+v, %v", r, ok)
	}
	if cycles != CyclesPerLinearRule {
		t.Errorf("cycles for first rule = %d, want %d", cycles, CyclesPerLinearRule)
	}
	// Blocklisted source also covered by rule 0's prefix? 10.66.x is
	// inside 10/8 but port/proto differ; it falls to rule 2.
	ft2 := flow(packet.Addr4{10, 66, 1, 1}, packet.Addr4{8, 8, 8, 8}, 1, 2, packet.ProtoTCP)
	r2, cycles2, ok2 := m.Match(ft2)
	if !ok2 || r2.ID != 2 {
		t.Fatalf("match2 = %+v, %v", r2, ok2)
	}
	if cycles2 != 3*CyclesPerLinearRule {
		t.Errorf("cycles after scanning 3 rules = %d", cycles2)
	}
	// No match: full scan cost.
	ftMiss := flow(packet.Addr4{172, 16, 0, 1}, packet.Addr4{8, 8, 8, 8}, 1, 2, packet.ProtoTCP)
	_, cyclesMiss, okMiss := m.Match(ftMiss)
	if okMiss {
		t.Error("should not match")
	}
	if cyclesMiss != 4*CyclesPerLinearRule {
		t.Errorf("miss cycles = %d", cyclesMiss)
	}
}

func TestTupleSpaceMatcherAgreesWithLinear(t *testing.T) {
	// Property: for rule sets without true port ranges, tuple-space and
	// linear matchers return the same rule on every flow.
	ts, err := NewTupleSpaceMatcher(testRules)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinearMatcher(testRules)
	if ts.Len() != lin.Len() {
		t.Fatalf("Len mismatch: %d vs %d", ts.Len(), lin.Len())
	}
	r := rand.New(rand.NewSource(31))
	addrs := []packet.Addr4{
		{10, 5, 5, 5}, {10, 66, 1, 1}, {192, 168, 1, 9}, {192, 168, 2, 7}, {8, 8, 8, 8}, {172, 16, 0, 1},
	}
	ports := []uint16{53, 80, 443, 40000, 1}
	protos := []uint8{packet.ProtoTCP, packet.ProtoUDP}
	for i := 0; i < 5000; i++ {
		ft := flow(addrs[r.Intn(len(addrs))], addrs[r.Intn(len(addrs))],
			ports[r.Intn(len(ports))], ports[r.Intn(len(ports))], protos[r.Intn(len(protos))])
		lr, _, lok := lin.Match(ft)
		tr, _, tok := ts.Match(ft)
		if lok != tok {
			t.Fatalf("flow %v: linear ok=%v tuple ok=%v", ft, lok, tok)
		}
		if lok && lr.ID != tr.ID {
			t.Fatalf("flow %v: linear rule %d, tuple rule %d", ft, lr.ID, tr.ID)
		}
	}
}

func TestTupleSpaceMatcherRejectsRanges(t *testing.T) {
	rules := []Rule{{DstPorts: PortRange{100, 200}}}
	if _, err := NewTupleSpaceMatcher(rules); err == nil {
		t.Error("port ranges should be rejected by the tuple-space matcher")
	}
	rules = []Rule{{SrcPorts: PortRange{100, 200}}}
	if _, err := NewTupleSpaceMatcher(rules); err == nil {
		t.Error("src port ranges should be rejected too")
	}
	// A /33 prefix matches nothing in the linear matcher; as a tuple key
	// it would shift to 0 and match everything.
	rules = []Rule{{Dst: pfx(10, 0, 0, 1, 33)}}
	if _, err := NewTupleSpaceMatcher(rules); err == nil {
		t.Error("prefixes longer than 32 bits should be rejected")
	}
}

func TestTupleSpaceCyclesIndependentOfRuleCount(t *testing.T) {
	// The ablation's point: tuple-space cost tracks mask groups, linear
	// cost tracks rules. Build 1000 exact-match rules in one group.
	var rules []Rule
	for i := 0; i < 1000; i++ {
		rules = append(rules, Rule{
			ID:       i,
			Src:      Prefix{Addr: addrFrom(uint32(0x0a000000 + i)), Bits: 32},
			Dst:      pfx(192, 168, 0, 1, 32),
			DstPorts: PortRange{80, 80}, Proto: packet.ProtoTCP,
			Action: Accept,
		})
	}
	ts, err := NewTupleSpaceMatcher(rules)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinearMatcher(rules)
	missFlow := flow(packet.Addr4{172, 16, 0, 1}, packet.Addr4{8, 8, 8, 8}, 1, 2, packet.ProtoTCP)
	_, tsCycles, _ := ts.Match(missFlow)
	_, linCycles, _ := lin.Match(missFlow)
	if tsCycles != CyclesPerTupleGroup {
		t.Errorf("tuple-space miss cost = %d, want one group (%d)", tsCycles, CyclesPerTupleGroup)
	}
	if linCycles != 1000*CyclesPerLinearRule {
		t.Errorf("linear miss cost = %d", linCycles)
	}
	if tsCycles >= linCycles {
		t.Error("tuple-space should beat linear on large single-group rule sets")
	}
}

func TestTupleSpacePriorityOnOverlap(t *testing.T) {
	// Two rules in different groups both match; the lower ID must win.
	rules := []Rule{
		{ID: 0, Src: pfx(10, 0, 0, 0, 8), Action: Drop},
		{ID: 1, Src: pfx(10, 1, 0, 0, 16), Action: Accept},
	}
	ts, err := NewTupleSpaceMatcher(rules)
	if err != nil {
		t.Fatal(err)
	}
	ft := flow(packet.Addr4{10, 1, 2, 3}, packet.Addr4{8, 8, 8, 8}, 1, 2, packet.ProtoTCP)
	r, _, ok := ts.Match(ft)
	if !ok || r.ID != 0 {
		t.Errorf("overlap priority: got rule %d, want 0", r.ID)
	}
	// Priority is rule position, not the opaque ID: the first rule wins
	// although its ID is higher, as in the linear matcher.
	rules = []Rule{{ID: 5, Proto: packet.ProtoTCP}, {ID: 1}}
	if ts, err = NewTupleSpaceMatcher(rules); err != nil {
		t.Fatal(err)
	}
	lr, _, _ := NewLinearMatcher(rules).Match(ft)
	if r, _, ok := ts.Match(ft); !ok || r.ID != 5 || lr.ID != 5 {
		t.Errorf("position priority: tuple-space rule %d, linear rule %d, want 5", r.ID, lr.ID)
	}
}

func TestFirewallProcess(t *testing.T) {
	fw := NewFirewall("fw", NewLinearMatcher(testRules))
	p := packet.NewParser()
	opts := packet.BuildOpts{SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2}}

	// Accepted flow (rule 0).
	goodFlow := flow(packet.Addr4{10, 5, 5, 5}, packet.Addr4{192, 168, 1, 9}, 40000, 443, packet.ProtoTCP)
	frame, err := packet.BuildTCP4(opts, goodFlow, packet.FlagACK, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	res, err := fw.Process(p, frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Accept {
		t.Errorf("verdict = %v, want Accept", res.Verdict)
	}
	if res.Cycles <= CyclesParse {
		t.Errorf("cycles = %d, should include match work", res.Cycles)
	}
	if fw.Accepted != 1 || fw.Dropped != 0 {
		t.Errorf("after rule 0's accept: accepted=%d dropped=%d", fw.Accepted, fw.Dropped)
	}

	// Default drop for unmatched flow.
	badFlow := flow(packet.Addr4{172, 16, 0, 1}, packet.Addr4{8, 8, 8, 8}, 1, 2, packet.ProtoUDP)
	frame2, _ := packet.BuildUDP4(opts, badFlow, nil)
	_ = p.Parse(frame2)
	res2, err := fw.Process(p, frame2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Drop {
		t.Errorf("unmatched verdict = %v, want default Drop", res2.Verdict)
	}
	if fw.Accepted != 1 || fw.Dropped != 1 {
		t.Errorf("counters: accepted=%d dropped=%d", fw.Accepted, fw.Dropped)
	}
}

func TestFirewallDropsNonIP(t *testing.T) {
	fw := NewFirewall("fw", NewLinearMatcher(testRules))
	e := packet.Ethernet{EtherType: 0x0806}
	frame := make([]byte, 60)
	if _, err := e.SerializeTo(frame); err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	res, err := fw.Process(p, frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Drop {
		t.Error("non-IP traffic should fail closed")
	}
}
