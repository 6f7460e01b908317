package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// Internet-scale scenarios. The RFC 2544 synthetics in gen.go hold a
// per-flow state slice — fine at a few thousand flows, fatal at the
// 10⁶–10⁷ concurrent flows where NF state planes actually start to
// hurt. ScenarioGen therefore computes every per-flow property
// (addresses, ports, protocol, attack membership, churn phase) as a
// pure hash of (seed, flow index): no per-flow allocation, memory
// bounded by a handful of frame templates, and byte-identical streams
// per seed by construction. On top of the
// flow population sit the load shapes that stress state: diurnal rate
// curves, flash crowds, SYN-flood and amplification mixes blended with
// legitimate traffic, and long-duration flow churn.

// ErrScenario wraps every scenario-spec parse or validation error.
var ErrScenario = errors.New("workload: bad scenario spec")

// Class labels a generated packet's traffic class for goodput
// accounting. ClassLegit is the only class that counts toward goodput.
type Class string

// Traffic classes.
const (
	ClassLegit   Class = "legit"
	ClassAttack  Class = "attack"   // blocklisted-prefix base flows
	ClassFlood   Class = "synflood" // spoofed never-repeating TCP SYNs
	ClassAmplify Class = "amplify"  // large UDP from a small reflector set
)

// DiurnalClause shapes offered load as 1 - depth·cos(2πt/period): the
// run starts at the trough and peaks mid-period.
type DiurnalClause struct {
	Period, Depth float64
}

// FlashClause multiplies offered load by Peak during [At, At+For).
type FlashClause struct {
	At, For, Peak float64
}

// FloodClause blends spoofed TCP SYNs (each a never-before-seen
// five-tuple) into the stream at the given packet fraction, optionally
// windowed to [At, At+For) (zero window means the whole run).
type FloodClause struct {
	Rate, At, For float64
}

// AmplifyClause blends large UDP frames from a small reflector set at
// the given packet fraction, optionally windowed like FloodClause.
type AmplifyClause struct {
	Rate    float64
	Size    int
	At, For float64
}

// ChurnClause retires and replaces flows: each flow's five-tuple
// changes every Lifetime seconds (with a per-flow phase so the
// population turns over smoothly, not in lockstep).
type ChurnClause struct {
	Lifetime float64
}

// Scenario is a parsed -scenario spec.
type Scenario struct {
	// Flows is the concurrent flow population (default 1<<20).
	Flows int
	// Skew is the Zipf popularity exponent: 0 draws flows uniformly;
	// values > 1 use O(1)-memory rejection-inversion sampling. Values
	// in (0, 1] need the O(n) cumulative-table sampler and are only
	// accepted for populations up to 2^20 flows.
	Skew float64
	// AttackFraction of base flows originate from AttackPrefix.
	AttackFraction float64
	// TCPFraction of base flows are TCP (SYN on ~1/8 of their packets,
	// modelling connection setup within long-lived flows).
	TCPFraction float64
	// Seed derives all random streams (default 1).
	Seed uint64

	Diurnal  *DiurnalClause
	Flash    *FlashClause
	SYNFlood *FloodClause
	Amplify  *AmplifyClause
	Churn    *ChurnClause
}

// maxScenarioFlows bounds the population (2^27 ≈ 134M) so a typo'd
// exponent fails fast instead of producing a meaningless run.
const maxScenarioFlows = 1 << 27

// tableZipfMaxFlows bounds populations usable with skew in (0, 1],
// where only the O(n) cumulative-table sampler applies.
const tableZipfMaxFlows = 1 << 20

func (sc Scenario) withDefaults() Scenario {
	if sc.Flows == 0 {
		sc.Flows = 1 << 20
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Amplify != nil && sc.Amplify.Size == 0 {
		sc.Amplify.Size = 1200
	}
	return sc
}

// Validate checks a scenario after defaults are applied.
func (sc Scenario) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrScenario, fmt.Sprintf(format, args...))
	}
	if sc.Flows < 1 || sc.Flows > maxScenarioFlows {
		return bad("flows=%d outside [1, %d]", sc.Flows, maxScenarioFlows)
	}
	if sc.Skew < 0 || math.IsNaN(sc.Skew) || math.IsInf(sc.Skew, 0) {
		return bad("skew=%v must be finite and >= 0", sc.Skew)
	}
	if sc.Skew > 0 && sc.Skew <= 1 && sc.Flows > tableZipfMaxFlows {
		return bad("skew in (0, 1] needs the O(n) cumulative-table sampler, capped at %d flows; use skew > 1 (O(1)-memory rejection-inversion) at internet scale", tableZipfMaxFlows)
	}
	if sc.AttackFraction < 0 || sc.AttackFraction > 1 {
		return bad("attack=%v outside [0, 1]", sc.AttackFraction)
	}
	if sc.TCPFraction < 0 || sc.TCPFraction > 1 {
		return bad("tcp=%v outside [0, 1]", sc.TCPFraction)
	}
	if d := sc.Diurnal; d != nil {
		if d.Period <= 0 || d.Depth < 0 || d.Depth >= 1 {
			return bad("diurnal needs period > 0 and depth in [0, 1)")
		}
	}
	if f := sc.Flash; f != nil {
		if f.At < 0 || f.For <= 0 || f.Peak <= 0 {
			return bad("flashcrowd needs at >= 0, for > 0, peak > 0")
		}
	}
	blend := 0.0
	if f := sc.SYNFlood; f != nil {
		if f.Rate <= 0 || f.Rate >= 1 || f.At < 0 || f.For < 0 {
			return bad("synflood needs rate in (0, 1) and non-negative window")
		}
		blend += f.Rate
	}
	if a := sc.Amplify; a != nil {
		if a.Rate <= 0 || a.Rate >= 1 || a.At < 0 || a.For < 0 {
			return bad("amplify needs rate in (0, 1) and non-negative window")
		}
		if a.Size < packet.MinFrameLen || a.Size > packet.MaxFrameLen {
			return bad("amplify size=%d outside [%d, %d]", a.Size, packet.MinFrameLen, packet.MaxFrameLen)
		}
		blend += a.Rate
	}
	if blend >= 1 {
		return bad("attack blend rates sum to %v, leaving no legitimate traffic", blend)
	}
	if c := sc.Churn; c != nil {
		if c.Lifetime <= 0 {
			return bad("churn needs life > 0")
		}
	}
	return nil
}

// String renders the canonical spec (clauses in fixed order), suitable
// for reports and re-parsing.
func (sc Scenario) String() string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "zipf:flows=%d,skew=%s", sc.Flows, num(sc.Skew))
	if sc.AttackFraction > 0 {
		fmt.Fprintf(&b, ",attack=%s", num(sc.AttackFraction))
	}
	if sc.TCPFraction > 0 {
		fmt.Fprintf(&b, ",tcp=%s", num(sc.TCPFraction))
	}
	if d := sc.Diurnal; d != nil {
		fmt.Fprintf(&b, ";diurnal:period=%s,depth=%s", num(d.Period), num(d.Depth))
	}
	if f := sc.Flash; f != nil {
		fmt.Fprintf(&b, ";flashcrowd:at=%s,for=%s,peak=%s", num(f.At), num(f.For), num(f.Peak))
	}
	if f := sc.SYNFlood; f != nil {
		fmt.Fprintf(&b, ";synflood:rate=%s", num(f.Rate))
		if f.At != 0 || f.For != 0 {
			fmt.Fprintf(&b, ",at=%s,for=%s", num(f.At), num(f.For))
		}
	}
	if a := sc.Amplify; a != nil {
		fmt.Fprintf(&b, ";amplify:rate=%s,size=%d", num(a.Rate), a.Size)
		if a.At != 0 || a.For != 0 {
			fmt.Fprintf(&b, ",at=%s,for=%s", num(a.At), num(a.For))
		}
	}
	if c := sc.Churn; c != nil {
		fmt.Fprintf(&b, ";churn:life=%s", num(c.Lifetime))
	}
	fmt.Fprintf(&b, ";seed:%d", sc.Seed)
	return b.String()
}

// ParseScenario parses a -scenario spec: semicolon-separated clauses of
// the form kind:key=val,key=val. Kinds: zipf (flows, skew, attack,
// tcp), diurnal (period, depth), flashcrowd (at, for, peak), synflood
// (rate, at, for), amplify (rate, size, at, for), churn (life), and
// seed:N. Durations accept Go syntax ("250ms") or plain seconds.
//
//	zipf:flows=1e6,skew=1.1,attack=0.2;synflood:rate=0.4;churn:life=5s;seed:7
func ParseScenario(s string) (Scenario, error) {
	var sc Scenario
	if strings.TrimSpace(s) == "" {
		return sc, fmt.Errorf("%w: empty spec", ErrScenario)
	}
	seen := map[string]bool{}
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		head, rest, _ := strings.Cut(raw, ":")
		head = strings.TrimSpace(head)
		if seen[head] {
			return sc, fmt.Errorf("%w: duplicate clause %q", ErrScenario, head)
		}
		seen[head] = true
		if head == "seed" {
			seed, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return sc, fmt.Errorf("%w: seed %q: %v", ErrScenario, rest, err)
			}
			sc.Seed = seed
			continue
		}
		params, err := parseScenarioParams(head, rest)
		if err != nil {
			return sc, err
		}
		if err := applyScenarioClause(&sc, head, params); err != nil {
			return sc, err
		}
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// parseScenarioParams splits "key=val,key=val" into a map.
func parseScenarioParams(clause, s string) (map[string]string, error) {
	params := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return params, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(key) == "" {
			return nil, fmt.Errorf("%w: %s: parameter %q is not key=val", ErrScenario, clause, part)
		}
		params[strings.TrimSpace(key)] = strings.TrimSpace(val)
	}
	return params, nil
}

// applyScenarioClause interprets one parsed clause into sc.
func applyScenarioClause(sc *Scenario, head string, params map[string]string) error {
	get := func(key string) (float64, bool, error) {
		raw, ok := params[key]
		if !ok {
			return 0, false, nil
		}
		delete(params, key)
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, false, fmt.Errorf("%w: %s: %s=%q is not a number", ErrScenario, head, key, raw)
		}
		return v, true, nil
	}
	getDur := func(key string) (float64, bool, error) {
		raw, ok := params[key]
		if !ok {
			return 0, false, nil
		}
		delete(params, key)
		v, err := parseScenarioSeconds(raw)
		if err != nil {
			return 0, false, fmt.Errorf("%w: %s: %s=%q is not a duration", ErrScenario, head, key, raw)
		}
		return v, true, nil
	}
	var err error
	take := func(dst *float64, key string, dur bool) {
		if err != nil {
			return
		}
		var v float64
		var ok bool
		if dur {
			v, ok, err = getDur(key)
		} else {
			v, ok, err = get(key)
		}
		if ok {
			*dst = v
		}
	}
	switch head {
	case "zipf":
		flows, haveFlows, ferr := get("flows")
		if ferr != nil {
			return ferr
		}
		if haveFlows {
			if flows != math.Trunc(flows) || flows < 1 {
				return fmt.Errorf("%w: zipf: flows=%v is not a positive whole count", ErrScenario, flows)
			}
			sc.Flows = int(flows)
		}
		take(&sc.Skew, "skew", false)
		take(&sc.AttackFraction, "attack", false)
		take(&sc.TCPFraction, "tcp", false)
	case "diurnal":
		d := &DiurnalClause{}
		take(&d.Period, "period", true)
		take(&d.Depth, "depth", false)
		sc.Diurnal = d
	case "flashcrowd":
		f := &FlashClause{}
		take(&f.At, "at", true)
		take(&f.For, "for", true)
		take(&f.Peak, "peak", false)
		sc.Flash = f
	case "synflood":
		f := &FloodClause{}
		take(&f.Rate, "rate", false)
		take(&f.At, "at", true)
		take(&f.For, "for", true)
		sc.SYNFlood = f
	case "amplify":
		a := &AmplifyClause{}
		take(&a.Rate, "rate", false)
		var size float64
		take(&size, "size", false)
		a.Size = int(size)
		take(&a.At, "at", true)
		take(&a.For, "for", true)
		sc.Amplify = a
	case "churn":
		c := &ChurnClause{}
		take(&c.Lifetime, "life", true)
		sc.Churn = c
	default:
		return fmt.Errorf("%w: unknown clause %q", ErrScenario, head)
	}
	if err != nil {
		return err
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("%w: %s: unknown parameter %q", ErrScenario, head, keys[0])
	}
	return nil
}

// parseScenarioSeconds accepts Go duration syntax or plain seconds.
func parseScenarioSeconds(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// mix64 hashes two words with SplitMix64 finalisation — the pure
// function behind all per-flow properties.
func mix64(a, b uint64) uint64 {
	z := a + b*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// zipfRejInv samples Zipf ranks by Hörmann's rejection-inversion
// (the transformed-rejection method behind math/rand's sampler):
// invert the integral bound h of the density, then accept/reject
// against the true mass. O(1) memory and O(1) expected draws for any
// population size — the property that unlocks 10⁷-flow populations —
// valid for exponent q > 1.
type zipfRejInv struct {
	rng          *sim.RNG
	imax         float64
	q            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	s            float64
}

// newZipfRejInv builds a sampler over ranks [0, n) with exponent q > 1.
func newZipfRejInv(rng *sim.RNG, n int, q float64) *zipfRejInv {
	if n <= 0 || q <= 1 {
		panic("workload: rejection-inversion Zipf requires n > 0 and skew > 1")
	}
	z := &zipfRejInv{rng: rng, imax: float64(n - 1), q: q}
	z.oneminusQ = 1 - q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - 1 - z.hxm // h(0.5) - exp(-q·log v) - hxm, v = 1
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-q*math.Ln2))
	return z
}

// h is the integral of the extended density x^(-q) (with v = 1).
func (z *zipfRejInv) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(1+x)) * z.oneminusQinv
}

// hinv is h's inverse.
func (z *zipfRejInv) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - 1
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *zipfRejInv) Draw() int {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return int(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-z.q*math.Log(k+1)) {
			return int(k)
		}
	}
}

// scnShape is one frame template and the (protocol, size, SYN) shape
// it stamps.
type scnShape struct {
	proto byte
	size  int
	syn   bool
	tp    packet.Template
}

// ScenarioStats counts generated packets per class.
type ScenarioStats struct {
	Base, Flood, Amplify uint64
}

// ScenarioGen generates a Scenario's packet stream. Memory use is O(1)
// in the flow population: per-flow properties are hashes of the flow
// index, and each packet's tuple is stamped into one frame template per
// (protocol, size, SYN) shape, built on the shape's first draw. As with
// Generator, a Pkt's Frame is valid until the next draw.
type ScenarioGen struct {
	sc      Scenario
	rng     *sim.RNG
	zipfRI  *zipfRejInv
	zipfTab *sim.Zipf
	sizes   *Mix

	flowSeed, churnSeed, floodSeed, ampSeed uint64
	floodCount                              uint64
	shapes                                  []scnShape

	stats ScenarioStats
}

// reflectorSet is the amplification attack's source population: small
// by design (reflection abuses a few open resolvers), so it pressures
// bandwidth, not state tables.
const reflectorSet = 64

// baseSYNProb is the chance a legitimate TCP flow's packet carries a
// SYN (connection setup inside long-lived flows).
const baseSYNProb = 0.125

// NewScenarioGen builds a generator for sc (defaults applied,
// validated).
func NewScenarioGen(sc Scenario) (*ScenarioGen, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(sc.Seed)
	g := &ScenarioGen{
		sc:        sc,
		rng:       root.Derive("scenario-draws"),
		sizes:     IMIX(),
		flowSeed:  root.Derive("scenario-flows").Uint64(),
		churnSeed: root.Derive("scenario-churn").Uint64(),
		floodSeed: root.Derive("scenario-flood").Uint64(),
		ampSeed:   root.Derive("scenario-amplify").Uint64(),
	}
	switch {
	case sc.Skew > 1:
		g.zipfRI = newZipfRejInv(root.Derive("scenario-zipf"), sc.Flows, sc.Skew)
	case sc.Skew > 0:
		g.zipfTab = sim.NewZipf(root.Derive("scenario-zipf"), sc.Flows, sc.Skew)
	}
	return g, nil
}

// ArrivalRNG returns a dedicated random stream for inter-arrival
// draws, derived like Generator's so timing and content stay
// independently reproducible.
func (g *ScenarioGen) ArrivalRNG() *sim.RNG { return sim.NewRNG(g.sc.Seed).Derive("arrivals") }

// RateFactor scales offered load at simulated time t: the diurnal
// curve times the flash-crowd step. Feed it to the testbed's rate
// hook.
func (g *ScenarioGen) RateFactor(t float64) float64 {
	f := 1.0
	if d := g.sc.Diurnal; d != nil {
		f *= 1 - d.Depth*math.Cos(2*math.Pi*t/d.Period)
	}
	if fc := g.sc.Flash; fc != nil && t >= fc.At && t < fc.At+fc.For {
		f *= fc.Peak
	}
	return f
}

// windowActive reports whether an attack window covers t (a zero
// window means always).
func windowActive(at, dur, t float64) bool {
	if at == 0 && dur == 0 {
		return true
	}
	return t >= at && t < at+dur
}

// NextAt produces the next packet for simulated time t. Its frame is
// valid until the next call.
//
//fairbench:hotpath alloc gate row workload-scenario-gen
func (g *ScenarioGen) NextAt(t float64) (Pkt, Class, error) {
	floodRate, ampRate := 0.0, 0.0
	if f := g.sc.SYNFlood; f != nil && windowActive(f.At, f.For, t) {
		floodRate = f.Rate
	}
	if a := g.sc.Amplify; a != nil && windowActive(a.At, a.For, t) {
		ampRate = a.Rate
	}
	if floodRate > 0 || ampRate > 0 {
		u := g.rng.Float64()
		if u < floodRate {
			return g.nextFlood()
		}
		if u < floodRate+ampRate {
			return g.nextAmplify()
		}
	}
	return g.nextBase(t)
}

// nextBase draws a flow from the Zipf population.
func (g *ScenarioGen) nextBase(t float64) (Pkt, Class, error) {
	var idx int
	switch {
	case g.zipfRI != nil:
		idx = g.zipfRI.Draw()
	case g.zipfTab != nil:
		idx = g.zipfTab.Draw()
	default:
		idx = g.rng.Intn(g.sc.Flows)
	}
	ft, attack := g.flowTuple(idx, g.generation(idx, t))
	size := g.sizes.Next(g.rng)
	syn := false
	if ft.Proto == packet.ProtoTCP {
		syn = g.rng.Float64() < baseSYNProb
	}
	frame, err := g.stamp(ft, size, syn)
	if err != nil {
		return Pkt{}, ClassLegit, err
	}
	g.stats.Base++
	class := ClassLegit
	if attack {
		class = ClassAttack
	}
	return Pkt{Flow: ft, Frame: frame, Attack: attack, Class: class}, class, nil
}

// nextFlood emits one spoofed SYN: a monotone counter hashed into a
// fresh, legitimate-looking five-tuple, so every packet is a new flow
// to any state plane.
func (g *ScenarioGen) nextFlood() (Pkt, Class, error) {
	c := g.floodCount
	g.floodCount++
	h := mix64(g.floodSeed, c)
	ft := packet.FiveTuple{
		Src:     packet.Addr4{10, byte(1 + h%60), byte(c >> 8), byte(c)},
		Dst:     packet.Addr4{192, 168, 1, byte(1 + h%200)},
		SrcPort: uint16(1024 + (h>>16)%60000),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
	frame, err := g.stamp(ft, packet.MinFrameLen, true)
	if err != nil {
		return Pkt{}, ClassFlood, err
	}
	g.stats.Flood++
	return Pkt{Flow: ft, Frame: frame, Attack: true, Class: ClassFlood}, ClassFlood, nil
}

// nextAmplify emits one large UDP frame from the reflector set.
func (g *ScenarioGen) nextAmplify() (Pkt, Class, error) {
	k := g.rng.Intn(reflectorSet)
	h := mix64(g.ampSeed, uint64(k))
	ft := packet.FiveTuple{
		Src:     packet.Addr4{10, 70, 1, byte(k)},
		Dst:     packet.Addr4{192, 168, 1, byte(1 + h%200)},
		SrcPort: uint16(1024 + k),
		DstPort: 53,
		Proto:   packet.ProtoUDP,
	}
	frame, err := g.stamp(ft, g.sc.Amplify.Size, false)
	if err != nil {
		return Pkt{}, ClassAmplify, err
	}
	g.stats.Amplify++
	return Pkt{Flow: ft, Frame: frame, Attack: true, Class: ClassAmplify}, ClassAmplify, nil
}

// generation returns flow i's churn generation at time t (0 without
// churn). Each generation is a distinct five-tuple; the per-flow phase
// staggers turnover across the population.
func (g *ScenarioGen) generation(i int, t float64) uint32 {
	c := g.sc.Churn
	if c == nil {
		return 0
	}
	phase := unit(mix64(g.churnSeed, uint64(i))) * c.Lifetime
	return uint32((t + phase) / c.Lifetime)
}

// flowTuple synthesises flow i's five-tuple for a churn generation —
// a pure function of (seed, i, gen), the bounded-memory core.
func (g *ScenarioGen) flowTuple(i int, gen uint32) (packet.FiveTuple, bool) {
	h := mix64(g.flowSeed, uint64(i))
	attack := unit(h) < g.sc.AttackFraction
	proto := packet.ProtoUDP
	if unit(mix64(h, 0x7c9)) < g.sc.TCPFraction {
		proto = packet.ProtoTCP
	}
	hg := h
	if gen != 0 {
		// A new generation keeps the flow's identity bits (address
		// class, popularity rank) but renews its ephemeral port — the
		// old five-tuple retires from every state table's perspective.
		hg = mix64(h, uint64(gen))
	}
	var src packet.Addr4
	if attack {
		src = packet.Addr4{10, 66, byte(i >> 8), byte(i)}
	} else {
		src = packet.Addr4{10, byte(1 + h%60), byte(i >> 8), byte(i)}
	}
	var dstPort uint16
	switch {
	case proto == packet.ProtoTCP:
		dstPort = 443
	case (h>>8)%5 == 0:
		dstPort = uint16(2000 + h%100)
	default:
		dstPort = 53
	}
	return packet.FiveTuple{
		Src:     src,
		Dst:     packet.Addr4{192, 168, 1, byte(1 + h%200)},
		SrcPort: uint16(1024 + (hg>>24)%60000),
		DstPort: dstPort,
		Proto:   proto,
	}, attack
}

// stamp returns a frame for ft: its (proto, size, syn) shape's template
// with ft stamped in, the template built on the shape's first draw.
func (g *ScenarioGen) stamp(ft packet.FiveTuple, size int, syn bool) ([]byte, error) {
	for i := range g.shapes {
		if s := &g.shapes[i]; s.proto == ft.Proto && s.size == size && s.syn == syn {
			return s.tp.Stamp(ft), nil
		}
	}
	tp, err := newShape(ft.Proto, size, syn)
	if err != nil {
		return nil, err
	}
	//fairlint:allow hotalloc template cache miss path; steady state stamps cached templates
	g.shapes = append(g.shapes, scnShape{proto: ft.Proto, size: size, syn: syn, tp: tp})
	return g.shapes[len(g.shapes)-1].tp.Stamp(ft), nil
}
