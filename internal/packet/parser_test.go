package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParserUDPFrame(t *testing.T) {
	payload := []byte("dns-query-payload")
	frame, err := BuildUDP4(testOpts, udpFlow(), payload)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	want := []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeUDP}
	if len(p.Decoded) != len(want) {
		t.Fatalf("Decoded = %v", p.Decoded)
	}
	for i, lt := range want {
		if p.Decoded[i] != lt {
			t.Fatalf("Decoded = %v, want %v", p.Decoded, want)
		}
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	ft, ok := p.FiveTuple()
	if !ok || ft != udpFlow() {
		t.Errorf("five-tuple = %v, %v", ft, ok)
	}
	// Checksums must verify.
	udpSeg := frame[EthernetHeaderLen+IPv4MinHeaderLen : EthernetHeaderLen+IPv4MinHeaderLen+UDPHeaderLen+len(payload)]
	if !VerifyChecksumUDP(p.IP4.Src, p.IP4.Dst, udpSeg) {
		t.Error("UDP checksum does not verify")
	}
}

func TestParserTCPFrame(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\n")
	frame, err := BuildTCP4(testOpts, tcpFlow(), FlagPSH|FlagACK, payload)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if p.TCP.SrcPort != 49152 || p.TCP.DstPort != 443 || !p.TCP.Flags.Has(FlagPSH|FlagACK) {
		t.Errorf("TCP header = %+v", p.TCP)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	tcpSeg := frame[EthernetHeaderLen+IPv4MinHeaderLen : EthernetHeaderLen+IPv4MinHeaderLen+TCPMinHeaderLen+len(payload)]
	if !VerifyChecksumTCP(p.IP4.Src, p.IP4.Dst, tcpSeg) {
		t.Error("TCP checksum does not verify")
	}
	ft, ok := p.FiveTuple()
	if !ok || ft.Proto != ProtoTCP || ft.DstPort != 443 {
		t.Errorf("five-tuple = %v, %v", ft, ok)
	}
}

func TestParserMinimumFramePadding(t *testing.T) {
	// An empty UDP payload produces a padded 60-byte frame; the parser
	// must trim padding via the IP total length.
	frame, err := BuildUDP4(testOpts, udpFlow(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != MinFrameLen {
		t.Fatalf("frame length = %d, want %d", len(frame), MinFrameLen)
	}
	p := NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if len(p.Payload) != 0 {
		t.Errorf("padding leaked into payload: %d bytes", len(p.Payload))
	}
}

func TestParserVLAN(t *testing.T) {
	opts := testOpts
	opts.VLAN = 42
	frame, err := BuildUDP4(opts, udpFlow(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if !p.Eth.HasVLAN || p.Eth.VLANID != 42 {
		t.Errorf("VLAN = %+v", p.Eth)
	}
	if p.Decoded[1] != LayerTypeVLAN {
		t.Errorf("Decoded = %v", p.Decoded)
	}
}

func TestParserRejectsCorruption(t *testing.T) {
	frame, _ := BuildUDP4(testOpts, udpFlow(), []byte("abc"))
	// Corrupt the IP header.
	frame[EthernetHeaderLen+8] ^= 0xff
	p := NewParser()
	if err := p.Parse(frame); err == nil {
		t.Error("corrupted IP header should fail to parse")
	}
	// Truncated frame.
	if err := p.Parse(frame[:20]); err == nil {
		t.Error("truncated frame should fail")
	}
}

func TestParserUnknownEtherType(t *testing.T) {
	e := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: 0x0806} // ARP
	frame := make([]byte, 60)
	_, _ = e.SerializeTo(frame)
	p := NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if p.Decoded[len(p.Decoded)-1] != LayerTypePayload {
		t.Errorf("Decoded = %v, want trailing Payload", p.Decoded)
	}
	if _, ok := p.FiveTuple(); ok {
		t.Error("non-IP frame should not yield a five-tuple")
	}
}

func TestParseBuildRoundTripProperty(t *testing.T) {
	// Property: any generated frame parses back to its flow and payload.
	r := rand.New(rand.NewSource(21))
	f := func(srcIP, dstIP Addr4, srcPort, dstPort uint16, isTCP bool, payLen uint8) bool {
		flow := FiveTuple{
			Src: srcIP, Dst: dstIP,
			SrcPort: srcPort, DstPort: dstPort,
		}
		payload := make([]byte, int(payLen))
		for i := range payload {
			payload[i] = byte(r.Intn(256))
		}
		var frame []byte
		var err error
		if isTCP {
			flow.Proto = ProtoTCP
			frame, err = BuildTCP4(testOpts, flow, FlagACK, payload)
		} else {
			flow.Proto = ProtoUDP
			frame, err = BuildUDP4(testOpts, flow, payload)
		}
		if err != nil {
			return false
		}
		p := NewParser()
		if err := p.Parse(frame); err != nil {
			return false
		}
		ft, ok := p.FiveTuple()
		return ok && ft == flow && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleReverseAndHash(t *testing.T) {
	ft := tcpFlow()
	rev := ft.Reverse()
	if rev.Src != ft.Dst || rev.SrcPort != ft.DstPort || rev.Proto != ft.Proto {
		t.Errorf("Reverse = %+v", rev)
	}
	if rev.Reverse() != ft {
		t.Error("double reverse should be identity")
	}
	if ft.FastHash() != rev.FastHash() {
		t.Error("FastHash must be direction-symmetric")
	}
	other := ft
	other.DstPort = 8443
	if ft.FastHash() == other.FastHash() {
		t.Error("different flows should hash differently (overwhelmingly)")
	}
}

func TestFiveTupleString(t *testing.T) {
	got := udpFlow().String()
	if got != "10.0.0.1:1234 -> 10.0.0.2:53/UDP" {
		t.Errorf("String = %q", got)
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeTCP.String() != "TCP" || LayerType(99).String() != "LayerType(99)" {
		t.Error("LayerType strings")
	}
}

func TestBuildRejectsWrongProto(t *testing.T) {
	f := udpFlow()
	if _, err := BuildTCP4(testOpts, f, FlagSYN, nil); err == nil {
		t.Error("BuildTCP4 with UDP flow should fail")
	}
	f2 := tcpFlow()
	if _, err := BuildUDP4(testOpts, f2, nil); err == nil {
		t.Error("BuildUDP4 with TCP flow should fail")
	}
}
