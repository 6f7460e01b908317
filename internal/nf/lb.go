package nf

import (
	"errors"
	"fmt"
	"sort"

	"fairbench/internal/packet"
)

// Backend is a load-balancer target.
type Backend struct {
	Name string
	Addr packet.Addr4
}

// CyclesLBAffinity is the cost of an affinity-table hit — a single
// hash lookup, cheaper than walking the consistent-hash ring.
const CyclesLBAffinity = 45

// LoadBalancer rewrites destination addresses to a backend chosen by
// consistent hashing over the flow five-tuple, so all packets of a flow
// (and its reverse direction, via the symmetric FastHash) reach the
// same backend, and backend churn remaps only ~1/n of flows.
//
// An optional bounded flow-affinity table (EnableAffinity) pins flows
// to the backend picked on their first packet, surviving ring changes.
// When the table overflows, EvictNone degrades gracefully: the flow
// falls back to the stateless ring pick (service continues, affinity
// guarantees don't), with the miss attributed in AffinityBroken.
type LoadBalancer struct {
	name     string
	ring     []ringEntry // sorted by hash
	backends map[string]Backend
	// PerBackend counts packets steered to each backend name.
	PerBackend map[string]uint64
	vnodes     int
	affinity   *FlowTable
	order      []string // backend names by affinity index
	// AffinityHits counts packets steered by the affinity table;
	// AffinityBroken counts flows that could not get (or lost) an
	// affinity slot and fell back to the ring — the collateral signal
	// under state pressure.
	AffinityHits, AffinityBroken uint64
}

type ringEntry struct {
	hash uint64
	name string
}

// ErrNoBackends is returned when processing with an empty ring.
var ErrNoBackends = errors.New("nf: load balancer has no backends")

// NewLoadBalancer builds a balancer with the given virtual-node count
// per backend (more vnodes → smoother distribution; 64 is customary).
func NewLoadBalancer(name string, vnodes int) *LoadBalancer {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &LoadBalancer{
		name:       name,
		backends:   make(map[string]Backend),
		PerBackend: make(map[string]uint64),
		vnodes:     vnodes,
	}
}

// Name implements Func.
func (lb *LoadBalancer) Name() string { return lb.name }

// EnableAffinity attaches a bounded flow-affinity table (<=0 capacity
// means 1M entries). The seed matters only for EvictRandom.
func (lb *LoadBalancer) EnableAffinity(capacity int, policy EvictPolicy, seed uint64) {
	lb.affinity = NewFlowTable(capacity, policy, seed)
}

// AffinityEntries returns the live affinity-table size (0 when
// affinity is off).
func (lb *LoadBalancer) AffinityEntries() int {
	if lb.affinity == nil {
		return 0
	}
	return lb.affinity.Len()
}

// AffinityEvicted returns the number of affinity entries evicted to
// admit new flows.
func (lb *LoadBalancer) AffinityEvicted() uint64 {
	if lb.affinity == nil {
		return 0
	}
	return lb.affinity.Evictions
}

// AddBackend inserts a backend into the ring.
func (lb *LoadBalancer) AddBackend(b Backend) {
	if _, dup := lb.backends[b.Name]; dup {
		lb.RemoveBackend(b.Name)
	}
	lb.backends[b.Name] = b
	// The affinity table stores indices into order, so the slice is
	// append-only: removed names stay as tombstones (validated against
	// the live backend map on lookup) and re-adds reuse their slot.
	seen := false
	for _, name := range lb.order {
		if name == b.Name {
			seen = true
			break
		}
	}
	if !seen {
		lb.order = append(lb.order, b.Name)
	}
	for v := 0; v < lb.vnodes; v++ {
		lb.ring = append(lb.ring, ringEntry{hash: vnodeHash(b.Name, v), name: b.Name})
	}
	sort.Slice(lb.ring, func(i, j int) bool { return lb.ring[i].hash < lb.ring[j].hash })
}

// RemoveBackend removes a backend and its virtual nodes.
func (lb *LoadBalancer) RemoveBackend(name string) {
	delete(lb.backends, name)
	kept := lb.ring[:0]
	for _, e := range lb.ring {
		if e.name != name {
			kept = append(kept, e)
		}
	}
	lb.ring = kept
}

// Backends returns the number of live backends.
func (lb *LoadBalancer) Backends() int { return len(lb.backends) }

// Pick returns the backend for a flow.
func (lb *LoadBalancer) Pick(ft packet.FiveTuple) (Backend, error) {
	if len(lb.ring) == 0 {
		return Backend{}, ErrNoBackends
	}
	h := ft.FastHash()
	// First ring entry with hash >= h (a binary search over the sorted
	// ring), wrapping.
	i, j := 0, len(lb.ring)
	for i < j {
		m := int(uint(i+j) >> 1)
		if lb.ring[m].hash >= h {
			j = m
		} else {
			i = m + 1
		}
	}
	if i == len(lb.ring) {
		i = 0
	}
	return lb.backends[lb.ring[i].name], nil
}

// Process implements Func: rewrites the destination address to the
// picked backend (destination NAT style) with incremental checksum fix.
func (lb *LoadBalancer) Process(p *packet.Parser, frame []byte) (Result, error) {
	ft, ok := p.FiveTuple()
	if !ok {
		return Result{Verdict: Accept, Cycles: CyclesParse}, nil
	}
	b, cycles, err := lb.pickWithAffinity(ft)
	if err != nil {
		return Result{Verdict: Drop, Cycles: cycles}, err
	}
	lb.PerBackend[b.Name]++
	if err := rewriteDest(p, frame, b.Addr); err != nil {
		return Result{Verdict: Drop, Cycles: cycles}, err
	}
	return Result{Verdict: Rewritten, Cycles: cycles}, nil
}

// pickWithAffinity consults the affinity table first (when enabled),
// falling back to — and then trying to record — the ring pick.
func (lb *LoadBalancer) pickWithAffinity(ft packet.FiveTuple) (Backend, uint64, error) {
	if lb.affinity == nil {
		b, err := lb.Pick(ft)
		return b, CyclesParse + CyclesLBPick, err
	}
	if idx, hit := lb.affinity.Get(ft); hit {
		if int(idx) < len(lb.order) {
			if b, alive := lb.backends[lb.order[idx]]; alive {
				lb.affinity.Touch(ft)
				lb.AffinityHits++
				return b, CyclesParse + CyclesLBAffinity, nil
			}
		}
		// Stale pin: the backend left the pool. Drop the entry and
		// re-pick below — the flow's affinity is broken, not its
		// service.
		lb.affinity.Delete(ft)
		lb.AffinityBroken++
	}
	b, err := lb.Pick(ft)
	if err != nil {
		return b, CyclesParse + CyclesLBPick, err
	}
	if idx, known := lb.backendIndex(b.Name); known {
		if _, _, _, ok := lb.affinity.Put(ft, idx); !ok {
			// Full table, EvictNone: serve via the ring without a pin.
			lb.AffinityBroken++
		}
	}
	return b, CyclesParse + CyclesLBPick, nil
}

// backendIndex returns the order-slice index for a backend name.
func (lb *LoadBalancer) backendIndex(name string) (uint32, bool) {
	for i, n := range lb.order {
		if n == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// rewriteDest rewrites the IPv4 destination address with incremental
// checksum updates to the IP and transport checksums.
func rewriteDest(p *packet.Parser, frame []byte, newAddr packet.Addr4) error {
	ipStart := p.Eth.HeaderLen()
	ipHdrLen := p.IP4.HeaderLen()
	if len(frame) < ipStart+ipHdrLen {
		return fmt.Errorf("nf: frame shorter than parsed headers")
	}
	oldAddr := p.IP4.Dst

	ipCheck := beU16(frame[ipStart+10:])
	ipCheck = packet.UpdateChecksum32(ipCheck, oldAddr.Uint32(), newAddr.Uint32())
	copy(frame[ipStart+16:ipStart+20], newAddr[:])
	putU16(frame[ipStart+10:], ipCheck)

	l4Start := ipStart + ipHdrLen
	switch p.IP4.Protocol {
	case packet.ProtoTCP:
		check := beU16(frame[l4Start+16:])
		check = packet.UpdateChecksum32(check, oldAddr.Uint32(), newAddr.Uint32())
		putU16(frame[l4Start+16:], check)
	case packet.ProtoUDP:
		check := beU16(frame[l4Start+6:])
		if check != 0 {
			check = packet.UpdateChecksum32(check, oldAddr.Uint32(), newAddr.Uint32())
			if check == 0 {
				check = 0xffff
			}
			putU16(frame[l4Start+6:], check)
		}
	}
	return nil
}

// vnodeHash hashes a backend name and virtual-node index (FNV-1a with
// finalisation).
func vnodeHash(name string, v int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= uint64(v)
	h *= prime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
