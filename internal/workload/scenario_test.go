package workload

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func TestParseScenarioFull(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=1e6,skew=1.1,attack=0.2,tcp=0.3;diurnal:period=60s,depth=0.5;flashcrowd:at=10s,for=20s,peak=3;synflood:rate=0.4,at=5s,for=10s;amplify:rate=0.1,size=1200;churn:life=30s;seed:7")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flows != 1_000_000 || sc.Skew != 1.1 || sc.AttackFraction != 0.2 || sc.TCPFraction != 0.3 {
		t.Errorf("zipf clause = %+v", sc)
	}
	if sc.Seed != 7 {
		t.Errorf("seed = %d", sc.Seed)
	}
	if sc.Diurnal == nil || sc.Diurnal.Period != 60 || sc.Diurnal.Depth != 0.5 {
		t.Errorf("diurnal = %+v", sc.Diurnal)
	}
	if sc.Flash == nil || sc.Flash.At != 10 || sc.Flash.For != 20 || sc.Flash.Peak != 3 {
		t.Errorf("flash = %+v", sc.Flash)
	}
	if sc.SYNFlood == nil || sc.SYNFlood.Rate != 0.4 || sc.SYNFlood.At != 5 || sc.SYNFlood.For != 10 {
		t.Errorf("synflood = %+v", sc.SYNFlood)
	}
	if sc.Amplify == nil || sc.Amplify.Rate != 0.1 || sc.Amplify.Size != 1200 {
		t.Errorf("amplify = %+v", sc.Amplify)
	}
	if sc.Churn == nil || sc.Churn.Lifetime != 30 {
		t.Errorf("churn = %+v", sc.Churn)
	}
}

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario("zipf:skew=1.2")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flows != 1<<20 || sc.Seed != 1 {
		t.Errorf("defaults: flows=%d seed=%d", sc.Flows, sc.Seed)
	}
	// Durations accept plain seconds too.
	sc, err = ParseScenario("zipf:flows=100;churn:life=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Churn.Lifetime != 2.5 {
		t.Errorf("plain-seconds lifetime = %v", sc.Churn.Lifetime)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus:flows=1",
		"zipf:flows=abc",
		"zipf:flows=1.5",
		"zipf:flows=0",
		"zipf:skew=-1",
		"zipf:skew=0.5,flows=2097152", // table sampler over its cap
		"zipf:attack=1.5",
		"zipf:tcp=-0.1",
		"zipf:wat=1",
		"zipf:flows",
		"diurnal:period=0,depth=0.5",
		"diurnal:period=10,depth=1",
		"flashcrowd:at=1,for=0,peak=2",
		"synflood:rate=0",
		"synflood:rate=1",
		"synflood:rate=0.6;amplify:rate=0.5", // blend >= 1
		"amplify:rate=0.1,size=20",
		"churn:life=0",
		"seed:xyz",
		"zipf:flows=1;zipf:flows=2",
	}
	for _, in := range cases {
		if _, err := ParseScenario(in); !errors.Is(err, ErrScenario) {
			t.Errorf("ParseScenario(%q) = %v, want ErrScenario", in, err)
		}
	}
}

func TestScenarioStringRoundTrip(t *testing.T) {
	specs := []string{
		"zipf:flows=4096,skew=1.1,attack=0.25;synflood:rate=0.3;churn:life=5;seed:3",
		"zipf:flows=64;diurnal:period=10,depth=0.4;amplify:rate=0.2,size=1200;seed:9",
		"zipf:flows=128,skew=2;flashcrowd:at=1,for=2,peak=4;seed:1",
	}
	for _, in := range specs {
		sc, err := ParseScenario(in)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", in, err)
		}
		again, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", sc.String(), err)
		}
		if again.String() != sc.String() {
			t.Errorf("round trip changed spec:\n  %s\n  %s", sc.String(), again.String())
		}
	}
}

// streamDigest hashes n packets of a scenario stream: frame bytes,
// class, and declared flow, at a fixed packet rate over simulated time.
func streamDigest(t *testing.T, spec string, n int) uint64 {
	t.Helper()
	sc, err := ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		tm := float64(i) * 1e-3
		p, class, err := g.NextAt(tm)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(p.Frame)
		h.Write([]byte(class))
		var ftb [16]byte
		copy(ftb[:4], p.Flow.Src[:])
		copy(ftb[4:8], p.Flow.Dst[:])
		ftb[8] = byte(p.Flow.SrcPort >> 8)
		ftb[9] = byte(p.Flow.SrcPort)
		ftb[10] = byte(p.Flow.DstPort >> 8)
		ftb[11] = byte(p.Flow.DstPort)
		ftb[12] = p.Flow.Proto
		h.Write(ftb[:])
	}
	return h.Sum64()
}

func TestScenarioStreamByteIdenticalPerSeed(t *testing.T) {
	const spec = "zipf:flows=1e6,skew=1.1,attack=0.2,tcp=0.3;synflood:rate=0.2;amplify:rate=0.1;churn:life=0.5;diurnal:period=4,depth=0.3;seed:11"
	a := streamDigest(t, spec, 5000)
	b := streamDigest(t, spec, 5000)
	if a != b {
		t.Fatal("same seed must produce a byte-identical stream")
	}
	c := streamDigest(t, strings.Replace(spec, "seed:11", "seed:12", 1), 5000)
	if c == a {
		t.Fatal("different seeds should not collide")
	}
}

func TestScenarioBoundedMemoryAtInternetScale(t *testing.T) {
	// 10^7 concurrent flows: per-flow state would be hundreds of MB;
	// the generator must hold only frame templates.
	sc, err := ParseScenario("zipf:flows=1e7,skew=1.1,tcp=0.5;synflood:rate=0.1;amplify:rate=0.05;churn:life=1;seed:2")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[packet.FiveTuple]bool{}
	for i := 0; i < 20000; i++ {
		p, _, err := g.NextAt(float64(i) * 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Frame) < packet.MinFrameLen {
			t.Fatalf("undersized frame %d", len(p.Frame))
		}
		seen[p.Flow] = true
	}
	// Templates: {60,594,1514} × UDP/TCP-ACK/TCP-SYN combinations plus
	// flood SYN and amplify shapes — a handful, regardless of flows.
	if n := len(g.shapes); n > 12 {
		t.Errorf("template cache grew to %d entries — per-flow state leaking in", n)
	}
	if len(seen) < 5000 {
		t.Errorf("only %d distinct flows in 20k packets at 10M population", len(seen))
	}
}

func TestScenarioFramesParseAndMatchFlow(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=1024,skew=1.3,tcp=0.5,attack=0.2;synflood:rate=0.2;amplify:rate=0.1;churn:life=0.2;seed:5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	for i := 0; i < 5000; i++ {
		pk, class, err := g.NextAt(float64(i) * 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(pk.Frame); err != nil {
			t.Fatalf("packet %d (%s) does not parse: %v", i, class, err)
		}
		ft, ok := p.FiveTuple()
		if !ok || ft != pk.Flow {
			t.Fatalf("packet %d (%s): frame five-tuple %v != declared %v", i, class, ft, pk.Flow)
		}
	}
}

func TestScenarioFloodTuplesNeverRepeat(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=64;synflood:rate=0.9;seed:8")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[packet.FiveTuple]bool{}
	floods := 0
	for i := 0; i < 30000; i++ {
		pk, class, err := g.NextAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if class != ClassFlood {
			continue
		}
		floods++
		if pk.Flow.Proto != packet.ProtoTCP || pk.Flow.DstPort != 443 {
			t.Fatalf("flood packet is not a 443/TCP SYN: %v", pk.Flow)
		}
		if pk.Flow.Src[1] == 66 {
			t.Fatalf("flood source in the blocklisted prefix defeats its purpose: %v", pk.Flow.Src)
		}
		if seen[pk.Flow] {
			t.Fatalf("flood five-tuple repeated after %d floods: %v", floods, pk.Flow)
		}
		seen[pk.Flow] = true
	}
	if floods < 25000 {
		t.Errorf("flood count = %d of 30000 at rate 0.9", floods)
	}
}

func TestScenarioAmplifyShape(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=64;amplify:rate=0.5,size=1400;seed:9")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[packet.Addr4]bool{}
	amps := 0
	for i := 0; i < 10000; i++ {
		pk, class, err := g.NextAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if class != ClassAmplify {
			continue
		}
		amps++
		if len(pk.Frame) != 1400 || pk.Flow.Proto != packet.ProtoUDP || pk.Flow.DstPort != 53 {
			t.Fatalf("amplify packet shape: len=%d %v", len(pk.Frame), pk.Flow)
		}
		srcs[pk.Flow.Src] = true
	}
	if amps < 4000 {
		t.Errorf("amplify count = %d of 10000 at rate 0.5", amps)
	}
	if len(srcs) > reflectorSet {
		t.Errorf("%d reflector sources, want <= %d (amplification is state-light by design)", len(srcs), reflectorSet)
	}
}

func TestScenarioAttackWindows(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=64;synflood:rate=0.8,at=10,for=5;seed:10")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	countAt := func(tm float64) int {
		n := 0
		for i := 0; i < 2000; i++ {
			_, class, err := g.NextAt(tm)
			if err != nil {
				t.Fatal(err)
			}
			if class == ClassFlood {
				n++
			}
		}
		return n
	}
	if n := countAt(5); n != 0 {
		t.Errorf("%d floods before the window", n)
	}
	if n := countAt(12); n < 1200 {
		t.Errorf("%d floods of 2000 inside the window at rate 0.8", n)
	}
	if n := countAt(20); n != 0 {
		t.Errorf("%d floods after the window", n)
	}
}

func TestScenarioChurnRetiresTuples(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=256;churn:life=1;seed:12")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The same flow index must map to a stable tuple within a
	// generation and a different one far later.
	ft0, _ := g.flowTuple(7, g.generation(7, 0))
	ft0b, _ := g.flowTuple(7, g.generation(7, 0))
	if ft0 != ft0b {
		t.Fatal("tuple synthesis is not a pure function")
	}
	ftLater, _ := g.flowTuple(7, g.generation(7, 100))
	if ft0 == ftLater {
		t.Fatal("churn did not retire the tuple after 100 lifetimes")
	}
	if ft0.Src != ftLater.Src || ft0.Dst != ftLater.Dst || ft0.Proto != ftLater.Proto {
		t.Error("churn should renew the ephemeral port, not the flow's identity")
	}
	// Turnover is staggered: at any instant only a fraction of flows
	// sit near a generation boundary.
	changedEarly := 0
	for i := 0; i < 256; i++ {
		a, _ := g.flowTuple(i, g.generation(i, 0))
		b, _ := g.flowTuple(i, g.generation(i, 0.25))
		if a != b {
			changedEarly++
		}
	}
	if changedEarly == 0 || changedEarly > 128 {
		t.Errorf("%d of 256 flows churned in a quarter lifetime, want a staggered fraction", changedEarly)
	}
}

func TestScenarioRateFactor(t *testing.T) {
	sc, err := ParseScenario("zipf:flows=64;diurnal:period=10,depth=0.5;flashcrowd:at=2,for=1,peak=4;seed:1")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScenarioGen(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.RateFactor(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("trough factor = %v, want 0.5", got)
	}
	if got := g.RateFactor(5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("peak factor = %v, want 1.5", got)
	}
	withFlash := g.RateFactor(2.5)
	base := 1 - 0.5*math.Cos(2*math.Pi*2.5/10)
	if math.Abs(withFlash-4*base) > 1e-12 {
		t.Errorf("flash factor = %v, want %v", withFlash, 4*base)
	}
	if got := g.RateFactor(3.5); math.Abs(got-(1-0.5*math.Cos(2*math.Pi*3.5/10))) > 1e-12 {
		t.Errorf("post-flash factor = %v", got)
	}
}

func TestZipfRejInvDistribution(t *testing.T) {
	// The O(1)-memory sampler must agree with the O(n) table sampler on
	// head concentration for the same exponent.
	const n = 1000
	const draws = 50000
	ri := newZipfRejInv(sim.NewRNG(42), n, 1.3)
	riCounts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := ri.Draw()
		if k < 0 || k >= n {
			t.Fatalf("rank %d outside [0, %d)", k, n)
		}
		riCounts[k]++
	}
	tab := sim.NewZipf(sim.NewRNG(43), n, 1.3)
	tabCounts := make([]int, n)
	for i := 0; i < draws; i++ {
		tabCounts[tab.Draw()]++
	}
	head := func(c []int) float64 {
		s := 0
		for i := 0; i < 10; i++ {
			s += c[i]
		}
		return float64(s) / draws
	}
	hr, ht := head(riCounts), head(tabCounts)
	if math.Abs(hr-ht) > 0.03 {
		t.Errorf("top-10 mass: rejection-inversion %v vs table %v", hr, ht)
	}
	if riCounts[0] < riCounts[1] {
		t.Error("rank 0 should be the hottest")
	}
}

// FuzzParseScenario checks the scenario parser never panics, wraps all
// failures in ErrScenario, and canonicalises: a successfully parsed
// spec re-renders and re-parses to the same canonical string.
func FuzzParseScenario(f *testing.F) {
	f.Add("zipf:flows=1e6,skew=1.1,attack=0.2;synflood:rate=0.4;churn:life=5s;seed:7")
	f.Add("zipf:flows=64;diurnal:period=60s,depth=0.5;flashcrowd:at=10,for=20,peak=3")
	f.Add("amplify:rate=0.1,size=1200;seed:1")
	f.Add("zipf:skew=0.5,flows=1048576")
	f.Add(";;;")
	f.Add("zipf:")
	f.Add("seed:18446744073709551615")
	f.Add("churn:life=-3h")
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseScenario(in)
		if err != nil {
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("error does not wrap ErrScenario: %v", err)
			}
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("parsed scenario fails its own validation: %v", err)
		}
		again, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", sc.String(), err)
		}
		if again.String() != sc.String() {
			t.Fatalf("canonical form is not a fixed point:\n  %s\n  %s", sc.String(), again.String())
		}
	})
}

// FuzzTraceRead feeds arbitrary bytes to the trace reader: it must
// never panic and must fail with ErrBadTrace (or end with io.EOF), no
// matter how the stream is corrupted.
func FuzzTraceRead(f *testing.F) {
	g, err := NewGenerator(Spec{Flows: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := Record(&valid, g, CBR{}, 1e6, 8); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("FBTRACE1"))
	f.Add(bytes.Repeat([]byte{0x1f, 0x8b}, 20))
	trunc := valid.Bytes()
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("open error does not wrap ErrBadTrace: %v", err)
			}
			return
		}
		defer tr.Close()
		for i := 0; i < 1000; i++ {
			rec, err := tr.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("read error is neither EOF nor ErrBadTrace: %v", err)
				}
				return
			}
			if len(rec.Frame) > 0xffff {
				t.Fatal("oversize frame from reader")
			}
		}
	})
}
