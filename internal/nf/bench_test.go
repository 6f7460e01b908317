package nf

import (
	"fmt"
	"testing"

	"fairbench/internal/packet"
)

// Matcher ablation benches (DESIGN.md §4). Fig. 1a uses the cycles
// the matchers charge, not these timings: the linear matcher charges a
// scan but runs a compiled bit-vector index, whose ns/op barely grows
// with the rule count; tuple-space cost grows with the mask groups.

func syntheticRules(n int) []Rule {
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, Rule{
			ID:       i,
			Src:      Prefix{Addr: packet.Addr4From(uint32(0x0a000000 + i)), Bits: 32},
			Dst:      pfx(192, 168, 0, 1, 32),
			DstPorts: PortRange{Lo: 80, Hi: 80},
			Proto:    packet.ProtoTCP,
			Action:   Accept,
		})
	}
	return rules
}

func missFlowBench() packet.FiveTuple {
	return flow(packet.Addr4{172, 16, 9, 9}, packet.Addr4{8, 8, 8, 8}, 1234, 80, packet.ProtoTCP)
}

func BenchmarkLinearMatcher(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			m := NewLinearMatcher(syntheticRules(n))
			ft := missFlowBench()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Match(ft)
			}
		})
	}
}

func BenchmarkTupleSpaceMatcher(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			m, err := NewTupleSpaceMatcher(syntheticRules(n))
			if err != nil {
				b.Fatal(err)
			}
			ft := missFlowBench()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Match(ft)
			}
		})
	}
}

func BenchmarkFirewallProcess(b *testing.B) {
	fw := NewFirewall("fw", NewLinearMatcher(testRules))
	p := packet.NewParser()
	frame := buildForBench(b, natFlow(1, packet.ProtoTCP), []byte("payload"))
	if err := p.Parse(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Process(p, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNATEstablishedFlow(b *testing.B) {
	n := NewNAT("nat", packet.Addr4{203, 0, 113, 1})
	p := packet.NewParser()
	pristine := buildForBench(b, natFlow(1, packet.ProtoUDP), []byte("x"))
	frame := make([]byte, len(pristine))
	copy(frame, pristine)
	if err := p.Parse(frame); err != nil {
		b.Fatal(err)
	}
	// Establish the binding once.
	if _, err := n.Process(p, frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restore the original packet: NAT rewrites in place, and the
		// benchmark measures the established-flow path for the same
		// flow, as a forwarding loop would see it.
		copy(frame, pristine)
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Process(p, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBalancerPick(b *testing.B) {
	lb := NewLoadBalancer("lb", 64)
	for i := 0; i < 8; i++ {
		lb.AddBackend(Backend{Name: fmt.Sprintf("b%d", i), Addr: packet.Addr4{10, 0, 1, byte(i)}})
	}
	ft := natFlow(1, packet.ProtoTCP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Pick(ft); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAhoCorasickSearch(b *testing.B) {
	patterns := []string{"attack", "exploit", "/etc/passwd", "SELECT *", "cmd.exe", "wget http"}
	ac, err := NewAhoCorasick(patterns)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ac.Contains(payload)
	}
}

// buildForBench mirrors buildFor for benchmarks.
func buildForBench(b *testing.B, ft packet.FiveTuple, payload []byte) []byte {
	b.Helper()
	var frame []byte
	var err error
	if ft.Proto == packet.ProtoTCP {
		frame, err = packet.BuildTCP4(natOpts, ft, packet.FlagACK, 7, 9, payload)
	} else {
		frame, err = packet.BuildUDP4(natOpts, ft, payload)
	}
	if err != nil {
		b.Fatal(err)
	}
	return frame
}
