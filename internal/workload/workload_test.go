package workload

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func TestIMIXDistribution(t *testing.T) {
	m := IMIX()
	rng := sim.NewRNG(2)
	counts := map[int]int{}
	const n = 120000
	for i := 0; i < n; i++ {
		counts[m.Next(rng)]++
	}
	// Weights 7:4:1 over 60/594/1514.
	if got := float64(counts[60]) / n; math.Abs(got-7.0/12) > 0.01 {
		t.Errorf("60B fraction = %v, want ≈0.583", got)
	}
	if got := float64(counts[594]) / n; math.Abs(got-4.0/12) > 0.01 {
		t.Errorf("594B fraction = %v, want ≈0.333", got)
	}
	if got := float64(counts[1514]) / n; math.Abs(got-1.0/12) > 0.01 {
		t.Errorf("1514B fraction = %v, want ≈0.083", got)
	}
}

func TestNewMixValidation(t *testing.T) {
	if _, err := NewMix(nil, nil); err == nil {
		t.Error("empty mix should fail")
	}
	if _, err := NewMix([]int{64}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := NewMix([]int{10}, []float64{1}); err == nil {
		t.Error("sub-minimum frame should fail")
	}
	if _, err := NewMix([]int{64}, []float64{0}); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []uint64 {
		g, err := NewGenerator(Spec{Flows: 64, ZipfSkew: 1.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var hashes []uint64
		for i := 0; i < 500; i++ {
			p, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, p.Flow.FastHash()^uint64(len(p.Frame)))
		}
		return hashes
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at packet %d", i)
		}
	}
}

func TestGeneratorFramesParseAndMatchFlow(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	for i := 0; i < 500; i++ {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(pk.Frame); err != nil {
			t.Fatalf("generated frame %d does not parse: %v", i, err)
		}
		ft, ok := p.FiveTuple()
		if !ok || ft != pk.Flow {
			t.Fatalf("frame five-tuple %v != declared flow %v", ft, pk.Flow)
		}
	}
}

func TestGeneratorAttackFraction(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 4000, AttackFraction: 0.65, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	attack := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pk, _ := g.Next()
		if pk.Attack {
			attack++
			if pk.Flow.Src[0] != 10 || pk.Flow.Src[1] != 66 {
				t.Fatalf("attack flow not in 10.66/16: %v", pk.Flow.Src)
			}
		} else if pk.Flow.Src[1] == 66 {
			t.Fatalf("benign flow in attack prefix: %v", pk.Flow.Src)
		}
	}
	frac := float64(attack) / n
	if math.Abs(frac-0.65) > 0.03 {
		t.Errorf("attack fraction = %v, want ≈0.65", frac)
	}
}

func TestGeneratorZipfSkewsPopularity(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 1000, ZipfSkew: 1.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.FiveTuple]int)
	for i := 0; i < 20000; i++ {
		pk, _ := g.Next()
		counts[pk.Flow]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000 {
		t.Errorf("hottest flow count = %d; Zipf 1.3 should concentrate traffic", max)
	}
	// Uniform comparison.
	gu, _ := NewGenerator(Spec{Flows: 1000, Seed: 6})
	uc := make(map[packet.FiveTuple]int)
	for i := 0; i < 20000; i++ {
		pk, _ := gu.Next()
		uc[pk.Flow]++
	}
	umax := 0
	for _, c := range uc {
		if c > umax {
			umax = c
		}
	}
	if umax >= max {
		t.Errorf("uniform max %d should be far below zipf max %d", umax, max)
	}
}

func TestGeneratorSpecValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{AttackFraction: 1.5}); err == nil {
		t.Error("attack fraction > 1 should fail")
	}
}

// refFrame builds the frame the generator must emit for ft at size from
// scratch: a fresh payload filled byte by byte with the benign filler.
func refFrame(t *testing.T, ft packet.FiveTuple, size int) []byte {
	t.Helper()
	overhead := packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.UDPHeaderLen
	payload := make([]byte, max(size-overhead, 0))
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	f, err := packet.BuildUDP4(genOpts, ft, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGeneratorTemplates checks the dense template table: every frame
// equals one built from scratch, and a repeated (flow, size) draw
// returns the same backing array instead of building it again.
func TestGeneratorTemplates(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 8, ZipfSkew: 1.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		ft   packet.FiveTuple
		size int
	}
	seen := map[key]*byte{}
	for i := 0; i < 2000; i++ {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		k := key{pk.Flow, len(pk.Frame)}
		if first, ok := seen[k]; ok {
			if first != &pk.Frame[0] {
				t.Fatalf("repeated draw of %v rebuilt its template", k)
			}
			continue
		}
		seen[k] = &pk.Frame[0]
		if !bytes.Equal(pk.Frame, refFrame(t, pk.Flow, len(pk.Frame))) {
			t.Fatalf("frame for %v differs from a scratch build", k)
		}
	}
	if want := 8 * len(IMIX().sizes); len(seen) != want {
		t.Errorf("%d templates drawn, want all %d", len(seen), want)
	}
}

// TestGeneratorNextAllocs pins the steady state: once every template
// exists, drawing a packet allocates nothing. Allocations are counted
// from runtime.MemStats as a float per draw, so a draw that allocates
// only now and then still fails.
func TestGeneratorNextAllocs(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 64, ZipfSkew: 1.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatal(err)
		}
	}
	const draws = 20_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < draws; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / draws; allocs > 0.05 {
		t.Errorf("Next allocates %.4g times per packet after warm-up, want at most 0.05", allocs)
	}
}

func TestArrivalProcesses(t *testing.T) {
	rng := sim.NewRNG(8)
	if got := (CBR{}).NextGap(rng, 1000); got != 0.001 {
		t.Errorf("CBR gap = %v", got)
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		g := (Poisson{}).NextGap(rng, 1000)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	if mean := sum / n; math.Abs(mean-0.001) > 0.0001 {
		t.Errorf("Poisson mean gap = %v, want 0.001", mean)
	}
	if (CBR{}).Name() != "cbr" || (Poisson{}).Name() != "poisson" {
		t.Error("arrival names")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, _ := NewGenerator(Spec{Flows: 16, Seed: 10})
	var buf bytes.Buffer
	if err := Record(&buf, g, CBR{}, 1e6, 100); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var prevTS uint64
	n := 0
	p := packet.NewParser()
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.TimestampNanos < prevTS {
			t.Fatal("timestamps must be monotone")
		}
		prevTS = rec.TimestampNanos
		if err := p.Parse(rec.Frame); err != nil {
			t.Fatalf("replayed frame does not parse: %v", err)
		}
		n++
	}
	if n != 100 || tr.Count() != 100 {
		t.Errorf("replayed %d records", n)
	}
	// CBR at 1 Mpps: last timestamp ≈ 100 µs.
	if prevTS < 99_000 || prevTS > 101_000 {
		t.Errorf("last timestamp = %d ns, want ≈100µs", prevTS)
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v", err)
	}
}

func TestTraceWriterRejectsOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(TraceRecord{Frame: make([]byte, 70000)}); err == nil {
		t.Error("oversize frame should fail")
	}
}

func TestRecordValidation(t *testing.T) {
	g, _ := NewGenerator(Spec{Flows: 1})
	var buf bytes.Buffer
	if err := Record(&buf, g, CBR{}, 0, 10); err == nil {
		t.Error("zero pps should fail")
	}
	if err := Record(&buf, g, CBR{}, 100, -1); err == nil {
		t.Error("negative count should fail")
	}
}
