package nf

import (
	"math/rand"
	"testing"

	"fairbench/internal/packet"
)

func evFlow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr4{10, 1, byte(i >> 8), byte(i)}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: uint16(1024 + i), DstPort: 443, Proto: packet.ProtoTCP,
	}
}

func TestFlowTableBasics(t *testing.T) {
	ft := NewFlowTable(4, EvictNone, 1)
	if ft.Cap() != 4 || ft.Len() != 0 {
		t.Fatalf("cap/len = %d/%d", ft.Cap(), ft.Len())
	}
	for i := 0; i < 4; i++ {
		if _, _, _, ok := ft.Put(evFlow(i), uint32(i)); !ok {
			t.Fatalf("insert %d refused below capacity", i)
		}
	}
	if v, ok := ft.Get(evFlow(2)); !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	// Full + EvictNone: refuse, no eviction.
	if _, _, evicted, ok := ft.Put(evFlow(9), 9); ok || evicted {
		t.Fatal("full EvictNone table must refuse without evicting")
	}
	// Updating an existing key is not an insert and always succeeds.
	if _, _, _, ok := ft.Put(evFlow(2), 22); !ok {
		t.Fatal("update of existing key refused")
	}
	if v, _ := ft.Get(evFlow(2)); v != 22 {
		t.Fatalf("updated value = %d", v)
	}
	if !ft.Delete(evFlow(0)) || ft.Delete(evFlow(0)) {
		t.Fatal("delete should succeed once")
	}
	if _, _, _, ok := ft.Put(evFlow(9), 9); !ok {
		t.Fatal("insert after delete should reuse the slot")
	}
	if ft.Len() != 4 {
		t.Fatalf("len = %d", ft.Len())
	}
}

func TestFlowTableLRUEvictsColdest(t *testing.T) {
	ft := NewFlowTable(3, EvictLRU, 1)
	for i := 0; i < 3; i++ {
		ft.Put(evFlow(i), uint32(i))
	}
	// Touch 0 so 1 becomes the coldest.
	ft.Touch(evFlow(0))
	victim, val, evicted, ok := ft.Put(evFlow(3), 3)
	if !ok || !evicted {
		t.Fatalf("evicting insert: evicted=%v ok=%v", evicted, ok)
	}
	if victim != evFlow(1) || val != 1 {
		t.Fatalf("victim = %v (val %d), want flow 1", victim, val)
	}
	if _, ok := ft.Get(evFlow(0)); !ok {
		t.Error("touched entry evicted")
	}
	if ft.Evictions != 1 {
		t.Errorf("Evictions = %d", ft.Evictions)
	}
}

func TestFlowTableRandomEvictionDeterministic(t *testing.T) {
	run := func() []packet.FiveTuple {
		ft := NewFlowTable(8, EvictRandom, 42)
		var victims []packet.FiveTuple
		for i := 0; i < 64; i++ {
			if v, _, evicted, ok := ft.Put(evFlow(i), uint32(i)); ok && evicted {
				victims = append(victims, v)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != 64-8 {
		t.Fatalf("evictions = %d, want %d", len(a), 64-8)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d differs across identically seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlowTableMemoryBounded(t *testing.T) {
	// A million distinct flows through a 512-entry table must not grow
	// the pool past the capacity — bounded state is the whole point.
	ft := NewFlowTable(512, EvictLRU, 7)
	for i := 0; i < 1_000_000; i++ {
		ft.Put(evFlow(i%65521), uint32(i))
	}
	if ft.Len() > 512 {
		t.Fatalf("len = %d > cap", ft.Len())
	}
	if got := len(ft.entries); got > 512 {
		t.Fatalf("entry pool grew to %d slots", got)
	}
}

func TestEvictPolicyString(t *testing.T) {
	for p, want := range map[EvictPolicy]string{EvictNone: "none", EvictRandom: "random", EvictLRU: "lru", 9: "unknown"} {
		if got := p.String(); got != want {
			t.Errorf("EvictPolicy(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// TestConntrackOverflowAttributed is the regression test for the
// silent-refusal bug: every packet arriving at a full fail-closed
// table must land in OverflowDrops (and Dropped), never vanish from
// the accounting.
func TestConntrackOverflowAttributed(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{MaxEntries: 4})
	const offered = 32
	for i := 0; i < offered; i++ {
		sendTCP(t, c, ctFlow(uint16(2000+i)), packet.FlagSYN)
	}
	st := c.Stats()
	if st.NewFlows != 4 {
		t.Errorf("NewFlows = %d, want 4", st.NewFlows)
	}
	if st.OverflowDrops != offered-4 {
		t.Errorf("OverflowDrops = %d, want %d", st.OverflowDrops, offered-4)
	}
	if st.Dropped < st.OverflowDrops {
		t.Errorf("OverflowDrops (%d) must be a subset of Dropped (%d)", st.OverflowDrops, st.Dropped)
	}
	// Conservation: every offered packet is attributed to exactly one
	// outcome counter.
	if got := st.NewFlows + st.FastPath + st.Dropped + st.SYNCookiesSent + st.CookieBypassed; got != offered {
		t.Errorf("outcome counters sum to %d, want %d offered", got, offered)
	}
	if st.TableFull != offered-4 {
		t.Errorf("TableFull = %d, want %d", st.TableFull, offered-4)
	}
}

func TestConntrackLRUEvictionAdmitsNewFlows(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 4, Policy: EvictLRU, Seed: 1})
	const offered = 12
	for i := 0; i < offered; i++ {
		res := sendTCP(t, c, ctFlow(uint16(3000+i)), packet.FlagSYN)
		if res.Verdict != Accept {
			t.Fatalf("flow %d refused despite eviction policy", i)
		}
	}
	st := c.Stats()
	if st.NewFlows != offered {
		t.Errorf("NewFlows = %d, want %d", st.NewFlows, offered)
	}
	if st.OverflowDrops != 0 {
		t.Errorf("OverflowDrops = %d with eviction on", st.OverflowDrops)
	}
	if st.Evicted != offered-4 {
		t.Errorf("Evicted = %d, want %d", st.Evicted, offered-4)
	}
	if st.Entries != 4 {
		t.Errorf("Entries = %d", st.Entries)
	}
}

func TestConntrackEvictionCollateralCountsEstablished(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 2, Policy: EvictLRU, Seed: 1})
	// Establish one connection fully.
	sendTCP(t, c, ctFlow(100), packet.FlagSYN)
	sendTCP(t, c, ctFlow(100).Reverse(), packet.FlagSYN|packet.FlagACK)
	// Two more SYNs evict the established flow (now the coldest) and
	// then one of the new ones — the first eviction is collateral
	// damage to a vetted connection.
	sendTCP(t, c, ctFlow(101), packet.FlagSYN)
	sendTCP(t, c, ctFlow(102), packet.FlagSYN)
	sendTCP(t, c, ctFlow(103), packet.FlagSYN)
	st := c.Stats()
	if st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
	if st.EvictedEstablished != 1 {
		t.Errorf("EvictedEstablished = %d, want 1", st.EvictedEstablished)
	}
}

func TestConntrackSYNCookiesUnderPressure(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 2, SYNCookies: true, Seed: 1})
	sendTCP(t, c, ctFlow(200), packet.FlagSYN)
	sendTCP(t, c, ctFlow(201), packet.FlagSYN)

	// Table full: a rule-matched SYN is answered statelessly instead of
	// dropped, at extra cycle cost.
	res := sendTCP(t, c, ctFlow(202), packet.FlagSYN)
	if res.Verdict != Accept {
		t.Fatalf("cookie SYN verdict = %v", res.Verdict)
	}
	if res.Cycles <= CyclesParse+CyclesSYNCookie {
		t.Errorf("cookie path cycles = %d, want rule scan + cookie cost", res.Cycles)
	}
	if c.Entries() != 2 {
		t.Errorf("cookie accept must not create state, entries = %d", c.Entries())
	}
	// The cookie'd flow's ACK continues statelessly too.
	res = sendTCP(t, c, ctFlow(202), packet.FlagACK)
	if res.Verdict != Accept {
		t.Fatalf("cookie ACK verdict = %v", res.Verdict)
	}
	st := c.Stats()
	if st.SYNCookiesSent != 1 || st.CookieBypassed != 1 {
		t.Errorf("cookie counters = %d/%d, want 1/1", st.SYNCookiesSent, st.CookieBypassed)
	}
	// A blocklisted source gains nothing from cookies.
	bad := packet.FiveTuple{
		Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 1, DstPort: 443, Proto: packet.ProtoTCP,
	}
	if res := sendTCP(t, c, bad, packet.FlagSYN); res.Verdict != Drop {
		t.Error("cookies must not bypass the rule set")
	}
}

// recency lists a table's keys from most to least recently used.
func recency(t *FlowTable) []packet.FiveTuple {
	var out []packet.FiveTuple
	for s := t.head; s != noSlot; s = t.entries[s].next {
		out = append(out, t.entries[s].ft)
	}
	return out
}

// TestFlowTableUseMatchesGetTouch drives two identically seeded tables
// through the same random operations, one looking entries up with Use
// and the other with the Get+Touch pair it replaced: every result,
// eviction victim and the final recency order must agree.
func TestFlowTableUseMatchesGetTouch(t *testing.T) {
	for _, policy := range []EvictPolicy{EvictNone, EvictRandom, EvictLRU} {
		a, b := NewFlowTable(16, policy, 5), NewFlowTable(16, policy, 5)
		ops := rand.New(rand.NewSource(int64(policy) + 1))
		for i := 0; i < 20_000; i++ {
			k, v := evFlow(ops.Intn(40)), uint32(i)
			switch op := ops.Intn(10); {
			case op < 5:
				va, oka := a.Use(k)
				vb, okb := b.Get(k)
				b.Touch(k)
				if va != vb || oka != okb {
					t.Fatalf("%v op %d: Use = %d,%v, Get = %d,%v", policy, i, va, oka, vb, okb)
				}
			case op < 9:
				victimA, valA, evA, okA := a.Put(k, v)
				victimB, valB, evB, okB := b.Put(k, v)
				if victimA != victimB || valA != valB || evA != evB || okA != okB {
					t.Fatalf("%v op %d: Put diverged", policy, i)
				}
			default:
				if a.Delete(k) != b.Delete(k) {
					t.Fatalf("%v op %d: Delete diverged", policy, i)
				}
			}
		}
		ra, rb := recency(a), recency(b)
		if len(ra) != len(rb) {
			t.Fatalf("%v: %d vs %d entries", policy, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%v: recency order differs at %d", policy, i)
			}
		}
		if a.Evictions != b.Evictions {
			t.Errorf("%v: evictions %d vs %d", policy, a.Evictions, b.Evictions)
		}
	}
}
