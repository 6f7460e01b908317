package packet

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the zero-alloc parser: it must
// never panic or read out of bounds, only return structured errors.
// Run with `go test -fuzz=FuzzParse ./internal/packet` for continuous
// fuzzing; the seed corpus below runs as part of the normal test suite.
func FuzzParse(f *testing.F) {
	// Seed corpus: valid UDP and TCP frames, a VLAN frame, and
	// truncations/mutations of each.
	udp, err := BuildUDP4(testOpts, udpFlow(), []byte("seed-payload"))
	if err != nil {
		f.Fatal(err)
	}
	tcp, err := BuildTCP4(testOpts, tcpFlow(), FlagSYN, nil)
	if err != nil {
		f.Fatal(err)
	}
	vopts := testOpts
	vopts.VLAN = 7
	vlan, err := BuildUDP4(vopts, udpFlow(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(udp)
	f.Add(tcp)
	f.Add(vlan)
	f.Add(udp[:20])
	f.Add([]byte{})
	mutated := append([]byte(nil), udp...)
	mutated[14] ^= 0xf0 // damage the IP version/IHL byte
	f.Add(mutated)

	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine.
		if err := p.Parse(data); err != nil {
			return
		}
		// On success, the advertised structure must stay in bounds.
		if p.Eth.HeaderLen() > len(data) {
			t.Fatalf("ethernet header length %d exceeds frame %d", p.Eth.HeaderLen(), len(data))
		}
		for _, lt := range p.Decoded {
			if lt == LayerTypeIPv4 {
				end := p.Eth.HeaderLen() + int(p.IP4.Length)
				if end > len(data) {
					t.Fatalf("IPv4 total length %d exceeds frame %d", end, len(data))
				}
			}
		}
		// Payload must alias the input frame (or be empty).
		if len(p.Payload) > 0 {
			start := bytes.Index(data, p.Payload)
			if start < 0 && len(p.Payload) <= len(data) {
				// Payload always aliases data; Index can only fail if
				// the slice is not within data, which would be a bug.
				t.Fatal("payload does not alias the input frame")
			}
		}
		// A successful parse must also round-trip the five-tuple
		// consistently if one is reported.
		if ft, ok := p.FiveTuple(); ok {
			if ft.Proto != ProtoTCP && ft.Proto != ProtoUDP {
				t.Fatalf("five-tuple with protocol %d", ft.Proto)
			}
		}
	})
}

// FuzzStampFrame checks stamping against fresh builds: a template
// already stamped with one tuple, then stamped with another, holds the
// bytes BuildUDP4 or BuildTCP4 builds for the second, for any payload
// (and so any frame size), protocol, SYN flag and VLAN tag.
func FuzzStampFrame(f *testing.F) {
	f.Add(uint32(0x0a010203), uint32(0xc0a80101), uint16(1024), uint16(53), []byte("x"), false, false, false)
	f.Add(uint32(0x0a420001), uint32(0xc0a801c8), uint16(61023), uint16(443), make([]byte, 1460), true, true, false)
	f.Add(uint32(0xffffffff), uint32(0), uint16(0xffff), uint16(0), []byte{}, true, false, true)
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, payload []byte, tcp, syn, vlan bool) {
		proto, flags := ProtoUDP, FlagACK
		if tcp {
			proto = ProtoTCP
		}
		if syn {
			flags = FlagSYN
		}
		opts := testOpts
		if vlan {
			opts.VLAN = 7
		}
		if room := MaxFrameLen - EthernetHeaderLen - VLANTagLen - IPv4MinHeaderLen - TCPMinHeaderLen; len(payload) > room {
			payload = payload[:room]
		}
		addr := func(v uint32) Addr4 { return Addr4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)} }
		ft := FiveTuple{Src: addr(src), Dst: addr(dst), SrcPort: sport, DstPort: dport, Proto: proto}
		other := FiveTuple{Src: addr(^src), Dst: addr(dst + 1), SrcPort: ^sport, DstPort: dport + 1, Proto: proto}

		tp, err := NewTemplate(opts, proto, flags, payload)
		if err != nil {
			t.Fatal(err)
		}
		tp.Stamp(other)
		got := tp.Stamp(ft)
		var want []byte
		if tcp {
			want, err = BuildTCP4(opts, ft, flags, payload)
		} else {
			want, err = BuildUDP4(opts, ft, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stamped %v differs from a fresh build:\n got %x\nwant %x", ft, got, want)
		}
	})
}
