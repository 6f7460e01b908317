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

// FuzzChecksumIncremental cross-checks the RFC 1624 incremental update
// against full recomputation for arbitrary 16-bit field rewrites.
func FuzzChecksumIncremental(f *testing.F) {
	f.Add(uint16(0x1234), uint16(0x8), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, oldVal, newVal uint16, rest []byte) {
		if len(rest) < 2 {
			return
		}
		data := make([]byte, 2+len(rest))
		putBeUint16(data[0:2], oldVal)
		copy(data[2:], rest)
		base := Checksum(data, 0)

		updated := UpdateChecksum16(base, oldVal, newVal)
		putBeUint16(data[0:2], newVal)
		full := Checksum(data, 0)
		// One's-complement arithmetic has two representations of zero
		// (0x0000 and 0xffff); they verify identically.
		if updated != full && !(updated^full == 0xffff && (updated == 0xffff || full == 0xffff)) {
			t.Fatalf("incremental %#04x != full %#04x (old=%#04x new=%#04x)", updated, full, oldVal, newVal)
		}
	})
}
