package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel event rate (binary-heap
// scheduling; the calendar-queue alternative discussed in DESIGN.md was
// rejected for worst-case bounds — this bench is the evidence base).
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	rng := NewRNG(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			_ = s.At(s.Now()+Time(rng.Exp(1e6)), tick)
		}
	}
	b.ResetTimer()
	_ = s.At(0, tick)
	s.RunAll()
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEventThroughputDeepQueue measures scheduling with a large
// standing event population (heap depth stress).
func BenchmarkEventThroughputDeepQueue(b *testing.B) {
	s := New()
	rng := NewRNG(2)
	// Standing population of 10k future events.
	for i := 0; i < 10000; i++ {
		_ = s.At(Time(1e6+rng.Float64()), func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			_ = s.At(s.Now()+Time(rng.Exp(1e6)), tick)
		}
	}
	b.ResetTimer()
	_ = s.At(0, tick)
	s.Run(999999)
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(3)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(NewRNG(4), 4096, 1.1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= z.Draw()
	}
	_ = sink
}
