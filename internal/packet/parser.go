package packet

// Parser is a zero-allocation packet parser in the style of gopacket's
// DecodingLayerParser: it decodes into preallocated layer structs owned
// by the Parser, so the per-packet fast path performs no heap
// allocation. A Parser is not safe for concurrent use; give each
// goroutine its own.
type Parser struct {
	Eth Ethernet
	IP4 IPv4
	IP6 IPv6
	TCP TCP
	UDP UDP
	// Decoded lists the layers recognised by the last Parse call, in
	// order. It aliases an internal array and is valid until the next
	// call.
	Decoded []LayerType
	// Payload aliases the application payload of the last parsed
	// packet (valid until the caller mutates the input slice).
	Payload []byte

	decodedArr [4]LayerType
}

// NewParser returns a ready Parser.
func NewParser() *Parser { return &Parser{} }

// Parse decodes an Ethernet frame. On success, Decoded lists the layers
// and the corresponding structs are populated; Payload holds any bytes
// beyond the transport header. Ethernet trailer padding (frames are
// padded to 60 bytes on the wire) is trimmed using the IP total length.
//
//fairbench:hotpath alloc gate row packet-parse
func (p *Parser) Parse(frame []byte) error {
	p.Decoded = p.decodedArr[:0]
	p.Payload = nil

	if err := p.Eth.DecodeFromBytes(frame); err != nil {
		return err
	}
	p.Decoded = append(p.Decoded, LayerTypeEthernet)
	if p.Eth.HasVLAN {
		p.Decoded = append(p.Decoded, LayerTypeVLAN)
	}
	rest := frame[p.Eth.HeaderLen():]

	var (
		l4    []byte
		proto uint8
	)
	switch p.Eth.EtherType {
	case EtherTypeIPv4:
		if err := p.IP4.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.Decoded = append(p.Decoded, LayerTypeIPv4)
		// Trim Ethernet padding beyond the IP total length.
		l4 = rest[p.IP4.HeaderLen():p.IP4.Length]
		proto = p.IP4.Protocol
	case EtherTypeIPv6:
		if err := p.IP6.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.Decoded = append(p.Decoded, LayerTypeIPv6)
		l4 = rest[IPv6HeaderLen : IPv6HeaderLen+int(p.IP6.PayloadLength)]
		proto = p.IP6.NextHeader
	default:
		// Unknown L3: everything after Ethernet is opaque payload.
		p.Payload = rest
		p.Decoded = append(p.Decoded, LayerTypePayload)
		return nil
	}

	switch proto {
	case ProtoTCP:
		if err := p.TCP.DecodeFromBytes(l4); err != nil {
			return err
		}
		p.Decoded = append(p.Decoded, LayerTypeTCP)
		p.Payload = l4[p.TCP.HeaderLen():]
	case ProtoUDP:
		if err := p.UDP.DecodeFromBytes(l4); err != nil {
			return err
		}
		p.Decoded = append(p.Decoded, LayerTypeUDP)
		p.Payload = l4[UDPHeaderLen:p.UDP.Length]
	default:
		p.Payload = l4
		p.Decoded = append(p.Decoded, LayerTypePayload)
	}
	return nil
}

// FiveTuple extracts the flow key of the last parsed packet. It returns
// false when the packet was not IPv4 TCP/UDP (the simulator's workloads
// are IPv4; IPv6 flows would need an Addr16 variant).
func (p *Parser) FiveTuple() (FiveTuple, bool) {
	hasIP4, hasTCP, hasUDP := false, false, false
	for _, lt := range p.Decoded {
		switch lt {
		case LayerTypeIPv4:
			hasIP4 = true
		case LayerTypeTCP:
			hasTCP = true
		case LayerTypeUDP:
			hasUDP = true
		}
	}
	if !hasIP4 {
		return FiveTuple{}, false
	}
	ft := FiveTuple{Src: p.IP4.Src, Dst: p.IP4.Dst, Proto: p.IP4.Protocol}
	switch {
	case hasTCP:
		ft.SrcPort, ft.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case hasUDP:
		ft.SrcPort, ft.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return FiveTuple{}, false
	}
	return ft, true
}
