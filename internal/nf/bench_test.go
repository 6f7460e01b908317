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
			Src:      Prefix{Addr: addrFrom(uint32(0x0a000000 + i)), Bits: 32},
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
	ft := flow(packet.Addr4{192, 168, 0, 10}, packet.Addr4{1, 2, 3, 4}, 1, 80, packet.ProtoTCP)
	frame, err := packet.BuildTCP4(frameOpts, ft, packet.FlagACK, []byte("payload"))
	if err != nil {
		b.Fatal(err)
	}
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
