package packet

import "fmt"

// Builder assembles complete frames for the traffic generators. All
// helpers produce frames with valid lengths and checksums, padded to
// the Ethernet minimum, so the decoding path exercises its validation
// on every simulated packet.

// BuildOpts parameterises frame construction.
type BuildOpts struct {
	SrcMAC, DstMAC MAC
	VLAN           uint16 // 0 = untagged
}

// buildTTL is the IPv4 TTL of every built frame.
const buildTTL = 64

// BuildUDP4 returns an Ethernet+IPv4+UDP frame carrying payload, padded
// to the 60-byte Ethernet minimum.
func BuildUDP4(opts BuildOpts, flow FiveTuple, payload []byte) ([]byte, error) {
	if flow.Proto != ProtoUDP {
		return nil, fmt.Errorf("packet: BuildUDP4 with proto %d", flow.Proto)
	}
	eth := Ethernet{Dst: opts.DstMAC, Src: opts.SrcMAC, EtherType: EtherTypeIPv4}
	if opts.VLAN != 0 {
		eth.HasVLAN = true
		eth.VLANID = opts.VLAN
	}
	ethLen := eth.HeaderLen()
	udpLen := UDPHeaderLen + len(payload)
	total := ethLen + IPv4MinHeaderLen + udpLen
	size := total
	if size < MinFrameLen {
		size = MinFrameLen
	}
	//fairlint:allow hotalloc frame template construction; workload generators cache the result off the steady-state path
	frame := make([]byte, size)
	if _, err := eth.SerializeTo(frame); err != nil {
		return nil, err
	}
	ip := IPv4{TTL: buildTTL, Protocol: ProtoUDP, Src: flow.Src, Dst: flow.Dst}
	ipLen, err := ip.SerializeTo(frame[ethLen:], udpLen)
	if err != nil {
		return nil, err
	}
	udp := UDP{SrcPort: flow.SrcPort, DstPort: flow.DstPort}
	udpStart := ethLen + ipLen
	if _, err := udp.SerializeTo(frame[udpStart:], len(payload)); err != nil {
		return nil, err
	}
	copy(frame[udpStart+UDPHeaderLen:], payload)
	udp.ChecksumUDP(flow.Src, flow.Dst, frame[udpStart:udpStart+udpLen])
	return frame, nil
}

// buildSeq and buildAck are the sequence and acknowledgment numbers of
// every built TCP segment: no NF model reads them.
const buildSeq, buildAck = 1, 1

// BuildTCP4 returns an Ethernet+IPv4+TCP frame carrying payload with
// the given flags, padded to the Ethernet minimum.
func BuildTCP4(opts BuildOpts, flow FiveTuple, flags TCPFlags, payload []byte) ([]byte, error) {
	if flow.Proto != ProtoTCP {
		return nil, fmt.Errorf("packet: BuildTCP4 with proto %d", flow.Proto)
	}
	eth := Ethernet{Dst: opts.DstMAC, Src: opts.SrcMAC, EtherType: EtherTypeIPv4}
	if opts.VLAN != 0 {
		eth.HasVLAN = true
		eth.VLANID = opts.VLAN
	}
	ethLen := eth.HeaderLen()
	tcpLen := TCPMinHeaderLen + len(payload)
	total := ethLen + IPv4MinHeaderLen + tcpLen
	size := total
	if size < MinFrameLen {
		size = MinFrameLen
	}
	//fairlint:allow hotalloc frame template construction; workload generators cache the result off the steady-state path
	frame := make([]byte, size)
	if _, err := eth.SerializeTo(frame); err != nil {
		return nil, err
	}
	ip := IPv4{TTL: buildTTL, Protocol: ProtoTCP, Src: flow.Src, Dst: flow.Dst}
	ipLen, err := ip.SerializeTo(frame[ethLen:], tcpLen)
	if err != nil {
		return nil, err
	}
	tcp := TCP{SrcPort: flow.SrcPort, DstPort: flow.DstPort, Seq: buildSeq, Ack: buildAck, Flags: flags, Window: 65535}
	tcpStart := ethLen + ipLen
	if _, err := tcp.SerializeTo(frame[tcpStart:]); err != nil {
		return nil, err
	}
	copy(frame[tcpStart+TCPMinHeaderLen:], payload)
	tcp.ChecksumTCP(flow.Src, flow.Dst, frame[tcpStart:tcpStart+tcpLen])
	return frame, nil
}
