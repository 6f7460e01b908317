package perf

import "testing"

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Record(float64(i%1000000) + 1)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 1_000_000; i++ {
		_ = h.Record(float64(i%100000) + 1)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.99)
	}
	_ = sink
}

func BenchmarkJain(b *testing.B) {
	alloc := make([]float64, 4096)
	for i := range alloc {
		alloc[i] = float64(i%37) + 1
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Jain(alloc)
	}
	_ = sink
}
