// Package workload generates synthetic traffic for the simulated
// deployments: RFC 2544-style fixed-size and IMIX packet mixes, Zipf
// flow popularity, constant-rate and Poisson arrivals, and configurable
// fractions of blocklisted ("attack") traffic for the firewall
// experiments. It also records and replays traces in a compact binary
// format, substituting for the proprietary production traces the
// paper's example systems would be evaluated with.
package workload

import (
	"fmt"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// Mix is a weighted mixture of frame sizes.
type Mix struct {
	sizes []int
	cum   []float64
}

// NewMix builds a mixture from (size, weight) pairs; weights are
// normalised.
func NewMix(sizes []int, weights []float64) (*Mix, error) {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		return nil, fmt.Errorf("workload: mix needs matching non-empty sizes and weights")
	}
	m := &Mix{}
	var total float64
	for i, s := range sizes {
		if s < packet.MinFrameLen || s > packet.MaxFrameLen {
			return nil, fmt.Errorf("workload: frame size %d outside [%d, %d]", s, packet.MinFrameLen, packet.MaxFrameLen)
		}
		if weights[i] <= 0 {
			return nil, fmt.Errorf("workload: non-positive weight %v", weights[i])
		}
		total += weights[i]
	}
	m.sizes = append([]int(nil), sizes...)
	var cum float64
	for _, w := range weights {
		cum += w / total
		m.cum = append(m.cum, cum)
	}
	return m, nil
}

// IMIX returns the classic "simple IMIX" mixture: 64-byte (58.33%),
// 594-byte (33.33%), 1518-byte (8.33%) frames. The 64-byte component is
// padded to the 60-byte minimum our builder enforces (we model frames
// without FCS; a wire 64-byte frame is 60 bytes here).
func IMIX() *Mix {
	m, err := NewMix([]int{60, 594, 1514}, []float64{7, 4, 1})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return m
}

// Next returns the next frame size in bytes (Ethernet, no FCS).
func (m *Mix) Next(rng *sim.RNG) int { return m.sizes[m.pick(rng)] }

// pick draws the index of the next frame size.
func (m *Mix) pick(rng *sim.RNG) int {
	u := rng.Float64()
	for i, c := range m.cum {
		if u <= c {
			return i
		}
	}
	return len(m.sizes) - 1
}

// Spec configures a traffic generator.
type Spec struct {
	// Flows is the number of distinct five-tuples (default 1024).
	Flows int
	// ZipfSkew skews flow popularity; 0 draws flows uniformly.
	ZipfSkew float64
	// AttackFraction is the probability a generated flow originates
	// from the blocklisted prefix AttackPrefix — traffic the firewall
	// examples drop, and the switch experiment pre-drops in-network.
	AttackFraction float64
	// Seed derives all random streams (default 1).
	Seed uint64
}

// AttackPrefix is the source prefix of blocklisted traffic: 10.66.0.0/16.
var AttackPrefix = packet.Addr4{10, 66, 0, 0}

func (s Spec) withDefaults() Spec {
	if s.Flows == 0 {
		s.Flows = 1024
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Pkt is one generated packet: its flow, pre-built frame bytes, and
// whether it came from the attack prefix (ground truth for loss
// accounting). Scenario generators additionally stamp the traffic
// class for goodput metering; the plain Generator leaves it empty
// (treated as legitimate).
type Pkt struct {
	Flow   packet.FiveTuple
	Frame  []byte
	Attack bool
	Class  Class
}

// Generator produces UDP packets per a Spec, with IMIX frame sizes
// (TCP traffic comes from ScenarioGen). Frames are pre-built per
// (flow, size) template and the returned slice aliases the template:
// consumers that rewrite frames in place must copy first.
type Generator struct {
	spec  Spec
	flows []flowState
	sizes *Mix
	zipf  *sim.Zipf
	rng   *sim.RNG
	// Generated counts packets produced.
	Generated uint64
	// templates holds the built frame of flow f and size sizes[i] at
	// f*len(sizes.sizes)+i. It is allocated on the first Next, so generators
	// that are built but never drawn from cost nothing.
	templates [][]byte
}

type flowState struct {
	ft     packet.FiveTuple
	attack bool
}

// NewGenerator builds a generator.
func NewGenerator(spec Spec) (*Generator, error) {
	spec = spec.withDefaults()
	if spec.Flows < 0 || spec.AttackFraction < 0 || spec.AttackFraction > 1 {
		return nil, fmt.Errorf("workload: invalid spec %+v", spec)
	}
	g := &Generator{spec: spec, sizes: IMIX(), rng: sim.NewRNG(spec.Seed)}
	flowRng := g.rng.Derive("flows")
	for i := 0; i < spec.Flows; i++ {
		attack := flowRng.Float64() < spec.AttackFraction
		var src packet.Addr4
		if attack {
			src = packet.Addr4{10, 66, byte(i >> 8), byte(i)}
		} else {
			src = packet.Addr4{10, byte(1 + i%60), byte(i >> 8), byte(i)}
		}
		// This draw once chose TCP for a configurable fraction of
		// flows. Every flow is UDP now, but the draw stays: dropping it
		// would shift every later flow's attack draw, and with it every
		// seeded artifact.
		_ = flowRng.Float64()
		ft := packet.FiveTuple{
			Src:     src,
			Dst:     packet.Addr4{192, 168, 1, byte(1 + i%200)},
			SrcPort: uint16(1024 + i%60000),
			DstPort: pickDstPort(i),
			Proto:   packet.ProtoUDP,
		}
		g.flows = append(g.flows, flowState{ft: ft, attack: attack})
	}
	if spec.ZipfSkew > 0 && spec.Flows > 0 {
		g.zipf = sim.NewZipf(g.rng.Derive("zipf"), spec.Flows, spec.ZipfSkew)
	}
	return g, nil
}

// pickDstPort steers generated flows toward the example rule sets'
// UDP accept port 53, with some spread.
func pickDstPort(i int) uint16 {
	if i%5 == 0 {
		return uint16(2000 + i%100)
	}
	return 53
}

// ArrivalRNG returns a dedicated random stream for inter-arrival draws,
// derived from the generator's seed so that packet content and arrival
// timing are independently reproducible.
func (g *Generator) ArrivalRNG() *sim.RNG { return sim.NewRNG(g.spec.Seed).Derive("arrivals") }

// Next produces the next packet. The frame aliases an internal
// template; copy before mutating.
//
//fairbench:hotpath alloc gate row testbed-smartnic-packet
func (g *Generator) Next() (Pkt, error) {
	if len(g.flows) == 0 {
		return Pkt{}, fmt.Errorf("workload: generator has no flows")
	}
	var idx int
	if g.zipf != nil {
		idx = g.zipf.Draw()
	} else {
		idx = g.rng.Intn(len(g.flows))
	}
	fs := g.flows[idx]
	si := g.sizes.pick(g.rng)
	n := len(g.sizes.sizes)
	if g.templates == nil {
		//fairlint:allow hotalloc the template table is allocated once, on a generator's first draw
		g.templates = make([][]byte, len(g.flows)*n)
	}
	slot := &g.templates[idx*n+si]
	if *slot == nil {
		frame, err := buildFrame(fs.ft, g.sizes.sizes[si])
		if err != nil {
			return Pkt{}, err
		}
		*slot = frame
	}
	frame := *slot
	g.Generated++
	return Pkt{Flow: fs.ft, Frame: frame, Attack: fs.attack}, nil
}

var genOpts = packet.BuildOpts{
	SrcMAC: packet.MAC{0x02, 0xfa, 0x1b, 0, 0, 1},
	DstMAC: packet.MAC{0x02, 0xfa, 0x1b, 0, 0, 2},
}

// filler is the payload of every generated frame: benign bytes. The
// builders copy the payload into the new frame, so all frames share
// this one read-only array.
var filler = func() (f [packet.MaxFrameLen]byte) {
	for i := range f {
		f[i] = byte('a' + i%26)
	}
	return f
}()

// buildFrame constructs a frame of exactly size bytes for the flow,
// which must not exceed packet.MaxFrameLen.
func buildFrame(ft packet.FiveTuple, size int) ([]byte, error) {
	var overhead int
	switch ft.Proto {
	case packet.ProtoUDP:
		overhead = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.UDPHeaderLen
	case packet.ProtoTCP:
		overhead = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.TCPMinHeaderLen
	default:
		return nil, fmt.Errorf("workload: unsupported proto %d", ft.Proto)
	}
	payLen := size - overhead
	if payLen < 0 {
		payLen = 0
	}
	payload := filler[:payLen]
	if ft.Proto == packet.ProtoUDP {
		return packet.BuildUDP4(genOpts, ft, payload)
	}
	return packet.BuildTCP4(genOpts, ft, packet.FlagACK, 1, 1, payload)
}

// Arrival is an inter-arrival process over simulated time.
type Arrival interface {
	// NextGap returns seconds until the next arrival at rate pps.
	NextGap(rng *sim.RNG, pps float64) float64
	// Name labels the process.
	Name() string
}

// CBR is constant bit/packet rate: deterministic inter-arrival gaps,
// the RFC 2544 offered-load model.
type CBR struct{}

// NextGap implements Arrival.
func (CBR) NextGap(_ *sim.RNG, pps float64) float64 { return 1 / pps }

// Name implements Arrival.
func (CBR) Name() string { return "cbr" }

// Poisson draws exponential gaps — bursty arrivals for latency studies.
type Poisson struct{}

// NextGap implements Arrival.
func (Poisson) NextGap(rng *sim.RNG, pps float64) float64 { return rng.Exp(pps) }

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }
