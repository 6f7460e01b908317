package packet

// Internet checksum (RFC 1071), needed by IPv4 header validation and by
// frame templates, which complete a stamped frame's checksums from
// precomputed word sums.

// Checksum computes the 16-bit one's-complement internet checksum over
// data, folding an initial partial sum. Pass 0 as initial for a fresh
// computation over a region whose checksum field is zeroed.
func Checksum(data []byte, initial uint32) uint16 {
	return ^fold(wordSum(data, initial))
}

// wordSum adds data's big-endian 16-bit words to sum without folding,
// padding an odd trailing byte with zero. A frame of at most
// MaxFrameLen bytes cannot overflow it.
func wordSum(data []byte, sum uint32) uint32 {
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	return sum
}

// fold reduces a word sum to 16 bits with end-around carry.
func fold(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum)
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
