package perf

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestJainKnownValues(t *testing.T) {
	cases := []struct {
		alloc []float64
		want  float64
	}{
		{[]float64{1, 1, 1, 1}, 1},                  // perfectly fair
		{[]float64{1, 0, 0, 0}, 0.25},               // maximally unfair: 1/n
		{[]float64{4, 2}, (6.0 * 6.0) / (2 * 20.0)}, // 36/40 = 0.9
		{nil, 0},
		{[]float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := Jain(c.alloc); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.alloc, got, c.want)
		}
	}
}

func TestJainBoundsProperty(t *testing.T) {
	// Property (paper [13]): JFI ∈ [1/n, 1] for any non-zero allocation.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		alloc := make([]float64, len(raw))
		nonZero := false
		for i, r := range raw {
			alloc[i] = float64(r)
			if r != 0 {
				nonZero = true
			}
		}
		j := Jain(alloc)
		if !nonZero {
			return j == 0
		}
		n := float64(len(alloc))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestJainScaleInvariant(t *testing.T) {
	// Property: JFI is invariant under scaling all allocations by k > 0.
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		k := float64(kRaw%100) + 1
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, r := range raw {
			a[i] = float64(r) + 1
			b[i] = (float64(r) + 1) * k
		}
		return math.Abs(Jain(a)-Jain(b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestThroughputRates(t *testing.T) {
	tp := Throughput{Bits: 10_000_000_000, Packets: 1_000_000, Elapsed: time.Second}
	if got := tp.GbPerSecond(); math.Abs(got-10) > 1e-9 {
		t.Errorf("GbPerSecond = %v, want 10", got)
	}
	if got := tp.PacketsPerSecond(); math.Abs(got-1e6) > 1e-9 {
		t.Errorf("PacketsPerSecond = %v, want 1e6", got)
	}
	var empty Throughput
	if empty.BitsPerSecond() != 0 || empty.PacketsPerSecond() != 0 {
		t.Error("empty window rates should be 0")
	}
}

func TestThroughputString(t *testing.T) {
	tp := Throughput{Bits: 9_870_000_000, Packets: 1_200_000, Elapsed: time.Second}
	s := tp.String()
	if !strings.Contains(s, "9.870 Gb/s") || !strings.Contains(s, "1.200 Mpps") {
		t.Errorf("String = %q", s)
	}
}
