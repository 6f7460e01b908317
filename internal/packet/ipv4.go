package packet

import "fmt"

// Addr4 is an IPv4 address.
type Addr4 [4]byte

// String renders dotted-quad form.
func (a Addr4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer, convenient for
// prefix matching.
func (a Addr4) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IPv4 is an IPv4 header. Options are preserved opaquely.
type IPv4 struct {
	Version    uint8 // always 4 after a successful decode
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length including header
	ID         uint16
	Flags      uint8  // 3 bits
	FragOffset uint16 // 13 bits
	TTL        uint8
	Protocol   uint8
	Checksum   uint16
	Src, Dst   Addr4
	Options    []byte
}

// HeaderLen returns the header length in bytes.
func (ip *IPv4) HeaderLen() int { return int(ip.IHL) * 4 }

// DecodeFromBytes parses an IPv4 header. It verifies version, length
// fields and the header checksum; a packet failing any of these is
// rejected with a DecodeError.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4MinHeaderLen {
		return errTooShort(LayerTypeIPv4, IPv4MinHeaderLen, len(data))
	}
	ip.Version = data[0] >> 4
	if ip.Version != 4 {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: fmt.Sprintf("version %d", ip.Version)}
	}
	ip.IHL = data[0] & 0x0f
	hdrLen := ip.HeaderLen()
	if hdrLen < IPv4MinHeaderLen {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: fmt.Sprintf("IHL %d too small", ip.IHL)}
	}
	if len(data) < hdrLen {
		return errTooShort(LayerTypeIPv4, hdrLen, len(data))
	}
	ip.TOS = data[1]
	ip.Length = beUint16(data[2:4])
	if int(ip.Length) < hdrLen {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: fmt.Sprintf("total length %d < header %d", ip.Length, hdrLen)}
	}
	if int(ip.Length) > len(data) {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: fmt.Sprintf("total length %d exceeds captured %d", ip.Length, len(data))}
	}
	ip.ID = beUint16(data[4:6])
	ff := beUint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = beUint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	if hdrLen > IPv4MinHeaderLen {
		ip.Options = append(ip.Options[:0], data[IPv4MinHeaderLen:hdrLen]...)
	} else {
		ip.Options = ip.Options[:0]
	}
	// Verify the header checksum: summing the header including the
	// checksum field must yield zero.
	if Checksum(data[:hdrLen], 0) != 0 {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: "bad header checksum"}
	}
	return nil
}

// SerializeTo writes the header into buf, computing IHL, Length (from
// payloadLen) and the header checksum. It returns the header length.
func (ip *IPv4) SerializeTo(buf []byte, payloadLen int) (int, error) {
	optLen := (len(ip.Options) + 3) &^ 3 // pad options to 32-bit words
	hdrLen := IPv4MinHeaderLen + optLen
	if len(buf) < hdrLen {
		return 0, errTooShort(LayerTypeIPv4, hdrLen, len(buf))
	}
	total := hdrLen + payloadLen
	if total > 0xffff {
		return 0, &DecodeError{Layer: LayerTypeIPv4, Reason: fmt.Sprintf("total length %d overflows", total)}
	}
	ip.Version = 4
	ip.IHL = uint8(hdrLen / 4)
	ip.Length = uint16(total)
	buf[0] = ip.Version<<4 | ip.IHL
	buf[1] = ip.TOS
	putBeUint16(buf[2:4], ip.Length)
	putBeUint16(buf[4:6], ip.ID)
	putBeUint16(buf[6:8], uint16(ip.Flags)<<13|ip.FragOffset&0x1fff)
	buf[8] = ip.TTL
	buf[9] = ip.Protocol
	buf[10], buf[11] = 0, 0
	copy(buf[12:16], ip.Src[:])
	copy(buf[16:20], ip.Dst[:])
	for i := 0; i < optLen; i++ {
		if i < len(ip.Options) {
			buf[IPv4MinHeaderLen+i] = ip.Options[i]
		} else {
			buf[IPv4MinHeaderLen+i] = 0
		}
	}
	ip.Checksum = Checksum(buf[:hdrLen], 0)
	putBeUint16(buf[10:12], ip.Checksum)
	return hdrLen, nil
}
