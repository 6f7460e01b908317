package packet

import "fmt"

// Addr16 is an IPv6 address.
type Addr16 [16]byte

// String renders the full (non-compressed) colon-hex form; adequate for
// diagnostics in a simulator.
func (a Addr16) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		beUint16(a[0:2]), beUint16(a[2:4]), beUint16(a[4:6]), beUint16(a[6:8]),
		beUint16(a[8:10]), beUint16(a[10:12]), beUint16(a[12:14]), beUint16(a[14:16]))
}

// IPv6 is a fixed IPv6 header. Extension headers are not modelled; the
// workloads this repository generates do not emit them, and a decoder
// meeting them reports a DecodeError rather than mis-parsing.
type IPv6 struct {
	Version       uint8
	TrafficClass  uint8
	FlowLabel     uint32 // 20 bits
	PayloadLength uint16
	NextHeader    uint8
	HopLimit      uint8
	Src, Dst      Addr16
}

// DecodeFromBytes parses the fixed header.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < IPv6HeaderLen {
		return errTooShort(LayerTypeIPv6, IPv6HeaderLen, len(data))
	}
	ip.Version = data[0] >> 4
	if ip.Version != 6 {
		return &DecodeError{Layer: LayerTypeIPv6, Reason: fmt.Sprintf("version %d", ip.Version)}
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = uint32(data[1]&0x0f)<<16 | uint32(data[2])<<8 | uint32(data[3])
	ip.PayloadLength = beUint16(data[4:6])
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	if int(ip.PayloadLength) > len(data)-IPv6HeaderLen {
		return &DecodeError{Layer: LayerTypeIPv6, Reason: fmt.Sprintf("payload length %d exceeds captured %d", ip.PayloadLength, len(data)-IPv6HeaderLen)}
	}
	switch ip.NextHeader {
	case ProtoTCP, ProtoUDP:
	default:
		return &DecodeError{Layer: LayerTypeIPv6, Reason: fmt.Sprintf("unsupported next header %d (extension headers not modelled)", ip.NextHeader)}
	}
	return nil
}
