package packet

import (
	"fmt"
	"testing"
)

// Ablation benches (DESIGN.md §4): allocating one-shot decoding vs the
// zero-alloc Parser fast path, checksum costs, and builder throughput.

func benchFrame(b *testing.B, payloadLen int) []byte {
	b.Helper()
	frame, err := BuildUDP4(testOpts, udpFlow(), make([]byte, payloadLen))
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkParserZeroAlloc measures the reusable-Parser fast path.
func BenchmarkParserZeroAlloc(b *testing.B) {
	for _, size := range []int{0, 256, 1400} {
		b.Run(fmt.Sprintf("payload%d", size), func(b *testing.B) {
			frame := benchFrame(b, size)
			p := NewParser()
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Parse(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParserFreshAllocation measures the naive one-Parser-per-
// packet pattern the zero-alloc design replaces.
func BenchmarkParserFreshAllocation(b *testing.B) {
	frame := benchFrame(b, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		p := NewParser()
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksum measures the internet checksum over typical MTUs.
func BenchmarkChecksum(b *testing.B) {
	for _, size := range []int{20, 64, 576, 1500} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Checksum(data, 0)
			}
		})
	}
}

// BenchmarkBuildUDP4 measures full frame construction with checksums.
func BenchmarkBuildUDP4(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUDP4(testOpts, udpFlow(), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFiveTupleFastHash measures the flow hash used by RSS.
func BenchmarkFiveTupleFastHash(b *testing.B) {
	ft := tcpFlow()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= ft.FastHash()
	}
	_ = sink
}
