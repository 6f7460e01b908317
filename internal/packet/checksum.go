package packet

// Internet checksum (RFC 1071) and incremental update (RFC 1624),
// needed by IPv4 header validation and by the scenario generator's
// in-place five-tuple rewriting.

// Checksum computes the 16-bit one's-complement internet checksum over
// data, folding an initial partial sum. Pass 0 as initial for a fresh
// computation over a region whose checksum field is zeroed.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of the IPv4 pseudo-header
// used by TCP and UDP checksums.
func pseudoHeaderSum(src, dst [4]byte, proto uint8, length uint16) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// UpdateChecksum16 incrementally updates a checksum when a 16-bit field
// changes from old to new (RFC 1624, eqn. 3: HC' = ~(~HC + ~m + m')).
// The scenario generator uses it to fix IP and transport checksums
// after rewriting addresses and ports without re-summing the packet.
func UpdateChecksum16(check, old, new uint16) uint16 {
	sum := uint32(^check&0xffff) + uint32(^old&0xffff) + uint32(new)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// UpdateChecksum32 applies UpdateChecksum16 across a 32-bit field
// change (e.g. an IPv4 address).
func UpdateChecksum32(check uint16, old, new uint32) uint16 {
	check = UpdateChecksum16(check, uint16(old>>16), uint16(new>>16))
	return UpdateChecksum16(check, uint16(old), uint16(new))
}
