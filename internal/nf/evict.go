package nf

import (
	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// Graceful degradation under state pressure starts with one question:
// what happens to the N+1'th flow when the table holds N? The three
// conventional answers — refuse (fail closed), evict a random victim
// (DoS-resistant, hurts legitimate flows uniformly), evict the least
// recently used (protects the hot set, thrashes under scanning
// attacks) — have different collateral-damage profiles, and those
// profiles are exactly what overload-regime comparisons must surface.
// FlowTable packages the bounded-table-plus-policy mechanics once so
// conntrack and the hardware offload tables all degrade under the
// same, seeded, deterministic semantics.

// EvictPolicy selects what a full FlowTable does on insert.
type EvictPolicy uint8

// Eviction policies.
const (
	// EvictNone refuses inserts when full (fail closed).
	EvictNone EvictPolicy = iota
	// EvictRandom evicts a uniformly random entry (seeded).
	EvictRandom
	// EvictLRU evicts the least recently touched entry.
	EvictLRU
)

// String names the policy.
func (p EvictPolicy) String() string {
	switch p {
	case EvictNone:
		return "none"
	case EvictRandom:
		return "random"
	case EvictLRU:
		return "lru"
	default:
		return "unknown"
	}
}

// noSlot marks the absence of a neighbour in the intrusive LRU list.
const noSlot = int32(-1)

// ftEntry is one occupied slot: the key, a small caller-defined value,
// and intrusive recency-list links (head = most recently used).
type ftEntry struct {
	ft         packet.FiveTuple
	val        uint32
	prev, next int32
}

// FlowTable is a bounded five-tuple → uint32 map with a pluggable
// eviction policy. The entry pool is a slice grown once up to capacity
// and recycled through a free list, so the steady state allocates
// nothing and memory stays bounded by the capacity regardless of how
// many distinct flows pass through. Eviction randomness comes from a
// seeded sim.RNG — the policy stays inside the determinism boundary.
type FlowTable struct {
	capacity int
	policy   EvictPolicy
	rng      *sim.RNG
	idx      map[packet.FiveTuple]int32
	entries  []ftEntry
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used
	// Evictions counts entries removed to make room for inserts.
	Evictions uint64
}

// NewFlowTable builds a table bounded at capacity entries (<=0 means
// 1M). The seed matters only for EvictRandom.
func NewFlowTable(capacity int, policy EvictPolicy, seed uint64) *FlowTable {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &FlowTable{
		capacity: capacity,
		policy:   policy,
		rng:      sim.NewRNG(seed).Derive("evict"),
		idx:      make(map[packet.FiveTuple]int32),
		head:     noSlot,
		tail:     noSlot,
	}
}

// Len returns the live entry count.
func (t *FlowTable) Len() int { return len(t.idx) }

// Cap returns the capacity bound.
func (t *FlowTable) Cap() int { return t.capacity }

// Get looks up ft without touching recency.
func (t *FlowTable) Get(ft packet.FiveTuple) (uint32, bool) {
	slot, ok := t.idx[ft]
	if !ok {
		return 0, false
	}
	return t.entries[slot].val, true
}

// Use looks up ft and, when present, marks it most recently used: Get
// and Touch in one probe.
func (t *FlowTable) Use(ft packet.FiveTuple) (uint32, bool) {
	slot, ok := t.idx[ft]
	if !ok {
		return 0, false
	}
	t.moveToFront(slot)
	return t.entries[slot].val, true
}

// Touch marks ft as most recently used (no-op if absent).
func (t *FlowTable) Touch(ft packet.FiveTuple) {
	if slot, ok := t.idx[ft]; ok {
		t.moveToFront(slot)
	}
}

// Set updates the value of an existing entry (no recency change) and
// reports whether it was present.
func (t *FlowTable) Set(ft packet.FiveTuple, v uint32) bool {
	slot, ok := t.idx[ft]
	if ok {
		t.entries[slot].val = v
	}
	return ok
}

// Put inserts or updates ft. When the table is full, EvictNone refuses
// (ok=false); the other policies evict a victim first and return its
// key and value so callers can release per-flow resources (an offload
// credit) — evictions must never leak.
func (t *FlowTable) Put(ft packet.FiveTuple, v uint32) (victim packet.FiveTuple, victimVal uint32, evicted, ok bool) {
	if slot, present := t.idx[ft]; present {
		t.entries[slot].val = v
		t.moveToFront(slot)
		return packet.FiveTuple{}, 0, false, true
	}
	if len(t.idx) >= t.capacity {
		var slot int32
		switch t.policy {
		case EvictRandom:
			// The pool is fully occupied whenever the table is full, so
			// a uniform slot draw is a uniform entry draw.
			slot = int32(t.rng.Intn(len(t.entries)))
		case EvictLRU:
			slot = t.tail
		default:
			return packet.FiveTuple{}, 0, false, false
		}
		e := t.entries[slot]
		t.removeSlot(slot)
		victim, victimVal, evicted = e.ft, e.val, true
		t.Evictions++
	}
	slot := t.allocSlot()
	t.entries[slot] = ftEntry{ft: ft, val: v, prev: noSlot, next: t.head}
	if t.head != noSlot {
		t.entries[t.head].prev = slot
	}
	t.head = slot
	if t.tail == noSlot {
		t.tail = slot
	}
	t.idx[ft] = slot
	return victim, victimVal, evicted, true
}

// Delete removes ft and reports whether it was present.
func (t *FlowTable) Delete(ft packet.FiveTuple) bool {
	slot, ok := t.idx[ft]
	if !ok {
		return false
	}
	t.removeSlot(slot)
	return true
}

// Reset drops every entry (capacity and pool are retained).
func (t *FlowTable) Reset() {
	for ft := range t.idx {
		delete(t.idx, ft)
	}
	t.free = t.free[:0]
	for i := range t.entries {
		t.free = append(t.free, int32(i))
	}
	t.head, t.tail = noSlot, noSlot
}

// allocSlot returns a free pool slot, growing the pool while under
// capacity. Callers ensure room exists (evict or refuse first).
func (t *FlowTable) allocSlot() int32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot
	}
	//fairlint:allow hotalloc pool grows once to capacity; steady state recycles free-list slots
	t.entries = append(t.entries, ftEntry{})
	return int32(len(t.entries) - 1)
}

// removeSlot unlinks a slot from the recency list, the index and
// returns it to the free list.
func (t *FlowTable) removeSlot(slot int32) {
	e := &t.entries[slot]
	if e.prev != noSlot {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next != noSlot {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	delete(t.idx, e.ft)
	//fairlint:allow hotalloc free-list length is bounded by pool capacity; append never grows it
	t.free = append(t.free, slot)
}

// moveToFront makes slot the most recently used.
func (t *FlowTable) moveToFront(slot int32) {
	if t.head == slot {
		return
	}
	e := &t.entries[slot]
	if e.prev != noSlot {
		t.entries[e.prev].next = e.next
	}
	if e.next != noSlot {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev = noSlot
	e.next = t.head
	if t.head != noSlot {
		t.entries[t.head].prev = slot
	}
	t.head = slot
	if t.tail == noSlot {
		t.tail = slot
	}
}
