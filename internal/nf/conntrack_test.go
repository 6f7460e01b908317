package nf

import (
	"testing"

	"fairbench/internal/packet"
)

// ctRules allow TCP to 443 and UDP to 53 from anywhere benign, behind a
// realistic depth of filler rules (so the slow-path scan costs more
// than the established-flow hash lookup, as in production rule sets).
var ctRules = func() []Rule {
	rules := []Rule{{ID: 0, Src: pfx(10, 66, 0, 0, 16), Action: Drop}}
	for i := 0; i < 40; i++ {
		rules = append(rules, Rule{ID: 1 + i, Src: pfx(172, 20, byte(i), 0, 30), Action: Drop})
	}
	return append(rules,
		Rule{ID: 41, DstPorts: PortRange{443, 443}, Proto: packet.ProtoTCP, Action: Accept},
		Rule{ID: 42, DstPorts: PortRange{53, 53}, Proto: packet.ProtoUDP, Action: Accept},
	)
}()

// frameOpts are the MAC addresses of every test frame.
var frameOpts = packet.BuildOpts{SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2}}

func ctFlow(port uint16) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr4{10, 1, 0, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: port, DstPort: 443, Proto: packet.ProtoTCP,
	}
}

// connState reports the tracked state of a flow (either direction).
func connState(c *Conntrack, ft packet.FiveTuple) (ConnState, bool) {
	if v, ok := c.table.Get(ft); ok {
		return ConnState(v), true
	}
	v, ok := c.table.Get(ft.Reverse())
	return ConnState(v), ok
}

// sendTCP processes one crafted TCP packet through the conntrack.
func sendTCP(t *testing.T, c *Conntrack, ft packet.FiveTuple, flags packet.TCPFlags) Result {
	t.Helper()
	frame, err := packet.BuildTCP4(frameOpts, ft, flags, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	res, err := c.Process(p, frame)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConntrackHandshakeLifecycle(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{})
	ft := ctFlow(40000)

	// SYN: new flow, slow path, accepted.
	res := sendTCP(t, c, ft, packet.FlagSYN)
	if res.Verdict != Accept {
		t.Fatalf("SYN verdict = %v", res.Verdict)
	}
	if s, ok := connState(c, ft); !ok || s != StateNew {
		t.Fatalf("state after SYN = %v, %v", s, ok)
	}
	slowCycles := res.Cycles

	// SYN-ACK from the reverse direction: fast path (reverse lookup),
	// moves to established.
	res = sendTCP(t, c, ft.Reverse(), packet.FlagSYN|packet.FlagACK)
	if res.Verdict != Accept {
		t.Fatalf("SYN-ACK verdict = %v", res.Verdict)
	}
	if s, _ := connState(c, ft); s != StateEstablished {
		t.Fatalf("state after SYN-ACK = %v", s)
	}
	if res.Cycles >= slowCycles {
		t.Errorf("fast path (%d cycles) should be cheaper than slow path (%d)", res.Cycles, slowCycles)
	}

	// Data packets in both directions stay established.
	sendTCP(t, c, ft, packet.FlagACK|packet.FlagPSH)
	if s, _ := connState(c, ft); s != StateEstablished {
		t.Fatal("data packet should not change established state")
	}

	// FIN both ways closes and removes the entry.
	sendTCP(t, c, ft, packet.FlagFIN|packet.FlagACK)
	if s, _ := connState(c, ft); s != StateClosing {
		t.Fatalf("state after first FIN = %v", s)
	}
	sendTCP(t, c, ft.Reverse(), packet.FlagFIN|packet.FlagACK)
	if _, ok := connState(c, ft); ok {
		t.Fatal("connection should be removed after both FINs")
	}
	if c.Entries() != 0 {
		t.Errorf("entries = %d", c.Entries())
	}
}

func TestConntrackRSTTearsDown(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{})
	ft := ctFlow(40001)
	sendTCP(t, c, ft, packet.FlagSYN)
	sendTCP(t, c, ft, packet.FlagRST)
	if _, ok := connState(c, ft); ok {
		t.Fatal("RST should remove the connection")
	}
}

func TestConntrackRejectsStrayMidConnection(t *testing.T) {
	// A bare ACK with no tracked state is dropped even though the rule
	// set would accept the 5-tuple — the stateful fail-closed posture.
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{})
	res := sendTCP(t, c, ctFlow(40002), packet.FlagACK)
	if res.Verdict != Drop {
		t.Fatalf("stray ACK verdict = %v", res.Verdict)
	}
	if c.Entries() != 0 {
		t.Error("stray packet must not create state")
	}
}

func TestConntrackRespectsRules(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{})
	// Blocklisted source: dropped on the slow path.
	bad := packet.FiveTuple{
		Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 1, DstPort: 443, Proto: packet.ProtoTCP,
	}
	res := sendTCP(t, c, bad, packet.FlagSYN)
	if res.Verdict != Drop {
		t.Fatalf("blocklisted SYN verdict = %v", res.Verdict)
	}
	// Unmatched port: dropped.
	odd := ctFlow(40003)
	odd.DstPort = 8080
	if res := sendTCP(t, c, odd, packet.FlagSYN); res.Verdict != Drop {
		t.Fatalf("unmatched-port SYN verdict = %v", res.Verdict)
	}
}

func TestConntrackTableLimit(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{MaxEntries: 2})
	sendTCP(t, c, ctFlow(1000), packet.FlagSYN)
	sendTCP(t, c, ctFlow(1001), packet.FlagSYN)
	res := sendTCP(t, c, ctFlow(1002), packet.FlagSYN)
	if res.Verdict != Drop {
		t.Fatalf("over-limit SYN verdict = %v", res.Verdict)
	}
	if c.TableFull != 1 {
		t.Errorf("TableFull = %d", c.TableFull)
	}
}

func TestConntrackUDPEstablishedOnFirstAccept(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{})
	ft := packet.FiveTuple{
		Src: packet.Addr4{10, 1, 0, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 5000, DstPort: 53, Proto: packet.ProtoUDP,
	}
	frame, err := packet.BuildUDP4(frameOpts, ft, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	_ = p.Parse(frame)
	res, err := c.Process(p, frame)
	if err != nil || res.Verdict != Accept {
		t.Fatalf("UDP first packet: %v %v", res.Verdict, err)
	}
	if s, ok := connState(c, ft); !ok || s != StateEstablished {
		t.Fatalf("UDP state = %v, %v", s, ok)
	}
	// Reverse direction flows on the fast path.
	rev, _ := packet.BuildUDP4(frameOpts, ft.Reverse(), []byte("answer"))
	_ = p.Parse(rev)
	res2, err := c.Process(p, rev)
	if err != nil || res2.Verdict != Accept {
		t.Fatalf("UDP reverse: %v %v", res2.Verdict, err)
	}
	if res2.Cycles != CyclesParse+CyclesConntrackHit {
		t.Errorf("reverse cycles = %d, want fast path", res2.Cycles)
	}
}

func TestConnStateString(t *testing.T) {
	if StateNew.String() != "new" || StateEstablished.String() != "established" ||
		StateClosing.String() != "closing" || ConnState(9).String() != "unknown" {
		t.Error("state names")
	}
}

func TestVerdictString(t *testing.T) {
	if Accept.String() != "accept" || Drop.String() != "drop" || Verdict(99).String() != "unknown" {
		t.Error("verdict strings")
	}
}
