package packet

import (
	"bytes"
	"strings"
	"testing"
)

var (
	testSrcMAC = MAC{0x02, 0, 0, 0, 0, 1}
	testDstMAC = MAC{0x02, 0, 0, 0, 0, 2}
	testOpts   = BuildOpts{SrcMAC: testSrcMAC, DstMAC: testDstMAC}
)

func udpFlow() FiveTuple {
	return FiveTuple{
		Src: Addr4{10, 0, 0, 1}, Dst: Addr4{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 53, Proto: ProtoUDP,
	}
}

func tcpFlow() FiveTuple {
	return FiveTuple{
		Src: Addr4{192, 168, 1, 10}, Dst: Addr4{192, 168, 1, 20},
		SrcPort: 49152, DstPort: 443, Proto: ProtoTCP,
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4}
	buf := make([]byte, 64)
	n, err := e.SerializeTo(buf)
	if err != nil || n != EthernetHeaderLen {
		t.Fatalf("SerializeTo: n=%d err=%v", n, err)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.Src != e.Src || d.Dst != e.Dst || d.EtherType != e.EtherType || d.HasVLAN {
		t.Errorf("round trip mismatch: %+v", d)
	}
}

func TestEthernetVLANRoundTrip(t *testing.T) {
	e := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv6, HasVLAN: true, VLANID: 0x123, Priority: 5}
	buf := make([]byte, 64)
	n, err := e.SerializeTo(buf)
	if err != nil || n != EthernetHeaderLen+VLANTagLen {
		t.Fatalf("SerializeTo: n=%d err=%v", n, err)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if !d.HasVLAN || d.VLANID != 0x123 || d.Priority != 5 || d.EtherType != EtherTypeIPv6 {
		t.Errorf("VLAN round trip mismatch: %+v", d)
	}
}

func TestEthernetTooShort(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short frame should fail")
	}
	vlanFrame := make([]byte, 14)
	putBeUint16(vlanFrame[12:14], EtherTypeVLAN)
	if err := e.DecodeFromBytes(vlanFrame); err == nil {
		t.Error("VLAN tag truncation should fail")
	}
	if _, err := e.SerializeTo(make([]byte, 5)); err == nil {
		t.Error("short buffer should fail")
	}
}

func TestMACString(t *testing.T) {
	if got := testSrcMAC.String(); got != "02:00:00:00:00:01" {
		t.Errorf("MAC string = %q", got)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := IPv4{TOS: 0x10, ID: 777, Flags: 2, TTL: 64, Protocol: ProtoUDP,
		Src: Addr4{10, 1, 2, 3}, Dst: Addr4{10, 4, 5, 6}}
	buf := make([]byte, 64)
	n, err := ip.SerializeTo(buf, 20)
	if err != nil || n != IPv4MinHeaderLen {
		t.Fatalf("SerializeTo: %d, %v", n, err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(buf[:40]); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.TTL != 64 || d.ID != 777 || d.Length != 40 || d.Flags != 2 {
		t.Errorf("round trip mismatch: %+v", d)
	}
	// Corrupt a byte: checksum must catch it.
	buf[15] ^= 0xff
	if err := d.DecodeFromBytes(buf[:40]); err == nil {
		t.Error("corrupted header should fail checksum")
	}
}

func TestIPv4Validation(t *testing.T) {
	var d IPv4
	if err := d.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short header")
	}
	buf := make([]byte, 40)
	ip := IPv4{TTL: 1, Protocol: 6}
	_, _ = ip.SerializeTo(buf, 20)
	buf[0] = 0x60 // version 6
	if err := d.DecodeFromBytes(buf); err == nil {
		t.Error("wrong version should fail")
	}
	buf[0] = 0x42 // IHL 2 (8 bytes)
	if err := d.DecodeFromBytes(buf); err == nil {
		t.Error("tiny IHL should fail")
	}
}

func TestIPv4Options(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Options: []byte{0x94, 0x04, 0, 0}} // router alert
	buf := make([]byte, 64)
	n, err := ip.SerializeTo(buf, 0)
	if err != nil || n != 24 {
		t.Fatalf("options serialize: n=%d err=%v", n, err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Options, ip.Options) {
		t.Errorf("options = %x", d.Options)
	}
}

// ipv6Header is a fixed IPv6 header: traffic class 0xb8, flow label
// 0xabcde, an 8-byte payload after next header nh, hop limit 64, and
// source ::1 and destination ::2.
func ipv6Header(nh uint8) []byte {
	buf := make([]byte, IPv6HeaderLen+8)
	copy(buf, []byte{0x6b, 0x8a, 0xbc, 0xde, 0, 8, nh, 64})
	buf[23], buf[39] = 1, 2
	return buf
}

func TestIPv6Decode(t *testing.T) {
	var d IPv6
	if err := d.DecodeFromBytes(ipv6Header(ProtoUDP)); err != nil {
		t.Fatal(err)
	}
	want := IPv6{Version: 6, TrafficClass: 0xb8, FlowLabel: 0xabcde, PayloadLength: 8, NextHeader: ProtoUDP, HopLimit: 64}
	want.Src[15], want.Dst[15] = 1, 2
	if d != want {
		t.Errorf("decoded %+v, want %+v", d, want)
	}
}

func TestIPv6RejectsExtensionHeaders(t *testing.T) {
	var d IPv6
	err := d.DecodeFromBytes(ipv6Header(0 /* hop-by-hop */))
	if err == nil || !strings.Contains(err.Error(), "extension") {
		t.Errorf("extension header decode err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{SrcPort: 80, DstPort: 50000, Seq: 1000, Ack: 2000,
		Flags: FlagSYN | FlagACK, Window: 8192, Urgent: 0}
	buf := make([]byte, 64)
	n, err := tc.SerializeTo(buf)
	if err != nil || n != TCPMinHeaderLen {
		t.Fatalf("SerializeTo: %d %v", n, err)
	}
	var d TCP
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 80 || d.Seq != 1000 || d.Ack != 2000 || !d.Flags.Has(FlagSYN|FlagACK) || d.Window != 8192 {
		t.Errorf("round trip mismatch: %+v", d)
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("no flags = %q", got)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 1234, DstPort: 53}
	buf := make([]byte, 16)
	n, err := u.SerializeTo(buf, 8)
	if err != nil || n != UDPHeaderLen {
		t.Fatalf("SerializeTo: %d %v", n, err)
	}
	var d UDP
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1234 || d.DstPort != 53 || d.Length != 16 {
		t.Errorf("round trip mismatch: %+v", d)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style vector: checksum of this data validates to 0
	// when the computed checksum is inserted.
	data := []byte{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
		0x00, 0x00, 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c}
	c := Checksum(data, 0)
	putBeUint16(data[10:12], c)
	if Checksum(data, 0) != 0 {
		t.Error("inserting checksum should make the sum verify to 0")
	}
	// Known value for this classic header: 0xB1E6.
	if c != 0xb1e6 {
		t.Errorf("checksum = %#x, want 0xb1e6", c)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data pads with a zero byte.
	a := Checksum([]byte{0x01, 0x02, 0x03}, 0)
	b := Checksum([]byte{0x01, 0x02, 0x03, 0x00}, 0)
	if a != b {
		t.Errorf("odd-length checksum %#x != padded %#x", a, b)
	}
}

// TestStampUDPZeroChecksum drives the RFC 768 branch: a tuple whose UDP
// checksum computes to zero is stamped as 0xffff, as BuildUDP4 sends it.
func TestStampUDPZeroChecksum(t *testing.T) {
	payload := []byte("payload")
	tp, err := NewTemplate(testOpts, ProtoUDP, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	// With zero addresses and destination port, this source port
	// completes the segment's word sum to 0xffff.
	ft := FiveTuple{SrcPort: 0xffff - fold(tp.l4Sum), Proto: ProtoUDP}
	got := tp.Stamp(ft)
	want, err := BuildUDP4(testOpts, ft, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stamped frame differs from a fresh build:\n got %x\nwant %x", got, want)
	}
	if c := beUint16(got[tp.l4+6:]); c != 0xffff {
		t.Errorf("UDP checksum = %#04x, want 0xffff", c)
	}
}

func TestNewTemplateRejectsProto(t *testing.T) {
	if _, err := NewTemplate(testOpts, 1, 0, nil); err == nil {
		t.Error("an ICMP template should fail")
	}
}
