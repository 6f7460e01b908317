// Package packet implements a small, allocation-conscious packet stack
// for the simulated network functions in this repository: Ethernet
// (with 802.1Q VLAN), IPv4, TCP and UDP encoding and decoding, IPv6
// decoding, internet checksums (including RFC 1624 incremental update),
// five-tuple flow keys, and a zero-allocation Parser in the style of
// gopacket's DecodingLayerParser.
//
// The network functions built on top (internal/nf) do real per-packet
// work on these bytes; the simulator charges them cycle costs derived
// from that work, which is what makes the reproduced performance-cost
// points measurements rather than constants.
package packet

import "fmt"

// LayerType identifies a protocol layer.
type LayerType uint8

// Known layer types.
const (
	LayerTypeNone LayerType = iota
	LayerTypeEthernet
	LayerTypeVLAN
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
)

// String names the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeVLAN:
		return "VLAN"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// DecodeError describes a malformed packet.
type DecodeError struct {
	Layer  LayerType
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("packet: decoding %s: %s", e.Layer, e.Reason)
}

func errTooShort(l LayerType, need, have int) error {
	return &DecodeError{Layer: l, Reason: fmt.Sprintf("need %d bytes, have %d", need, have)}
}

// EtherType values.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86DD
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	VLANTagLen        = 4
	IPv4MinHeaderLen  = 20
	IPv6HeaderLen     = 40
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
	// MinFrameLen is the minimum Ethernet frame length excluding FCS.
	MinFrameLen = 60
	// MaxFrameLen is the standard maximum frame length excluding FCS.
	MaxFrameLen = 1514
)

// beUint16 and friends read/write big-endian integers without pulling
// in encoding/binary's interface indirection on the hot path.
func beUint16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func beUint32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBeUint16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }

func putBeUint32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
