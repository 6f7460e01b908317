package packet

import "fmt"

// Template is one frame shape, built once, into which each packet's
// five-tuple is stamped. It keeps the integer word sums of the IPv4
// header and of the transport pseudo-header and segment, taken with the
// tuple and checksum fields zeroed. Stamp adds the tuple's words and
// folds: that is the sum a fresh BuildUDP4 or BuildTCP4 folds, so every
// stamped frame is byte-identical to a fresh build. Copies of a
// Template share its frame.
type Template struct {
	frame []byte
	udp   bool
	// ip and l4 are the offsets of the IPv4 header and of the transport
	// header; check is the transport checksum's offset within it.
	ip, l4, check int
	// ipSum and l4Sum are the word sums without tuple and checksums.
	ipSum, l4Sum uint32
}

// NewTemplate builds the frame shape for proto (ProtoUDP or ProtoTCP)
// carrying payload, padded like BuildUDP4 and BuildTCP4. flags are the
// TCP flags; UDP ignores them.
func NewTemplate(opts BuildOpts, proto uint8, flags TCPFlags, payload []byte) (Template, error) {
	zero := FiveTuple{Proto: proto}
	t := Template{udp: proto == ProtoUDP}
	var err error
	switch proto {
	case ProtoUDP:
		t.frame, err = BuildUDP4(opts, zero, payload)
		t.check = 6
	case ProtoTCP:
		t.frame, err = BuildTCP4(opts, zero, flags, payload)
		t.check = 16
	default:
		return Template{}, fmt.Errorf("packet: template for proto %d", proto)
	}
	if err != nil {
		return Template{}, err
	}
	eth := Ethernet{HasVLAN: opts.VLAN != 0}
	t.ip = eth.HeaderLen()
	t.l4 = t.ip + IPv4MinHeaderLen
	// The built tuple is all zeros, so zeroing the checksums leaves
	// exactly the words a stamp does not write.
	ip := t.frame[t.ip:t.l4]
	segment := t.frame[t.l4 : t.ip+int(beUint16(ip[2:4]))]
	putBeUint16(ip[10:12], 0)
	putBeUint16(segment[t.check:], 0)
	t.ipSum = wordSum(ip, 0)
	t.l4Sum = wordSum(segment, pseudoHeaderSum(zero.Src, zero.Dst, proto, uint16(len(segment))))
	return t, nil
}

// Stamp writes ft's addresses, ports and the two checksums they imply
// into the template's frame and returns it. The frame is shared: it is
// valid until the next Stamp. ft.Proto must be the template's protocol.
func (t *Template) Stamp(ft FiveTuple) []byte {
	ip := t.frame[t.ip:t.l4]
	copy(ip[12:16], ft.Src[:])
	copy(ip[16:20], ft.Dst[:])
	src, dst := ft.Src.Uint32(), ft.Dst.Uint32()
	addrs := src>>16 + src&0xffff + dst>>16 + dst&0xffff
	putBeUint16(ip[10:12], ^fold(t.ipSum+addrs))

	l4 := t.frame[t.l4:]
	putBeUint16(l4[0:2], ft.SrcPort)
	putBeUint16(l4[2:4], ft.DstPort)
	c := ^fold(t.l4Sum + addrs + uint32(ft.SrcPort) + uint32(ft.DstPort))
	if c == 0 && t.udp {
		c = 0xffff // RFC 768: a computed zero is sent as all ones
	}
	putBeUint16(l4[t.check:t.check+2], c)
	return t.frame
}
