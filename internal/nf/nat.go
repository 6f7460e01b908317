package nf

import (
	"errors"
	"fmt"

	"fairbench/internal/packet"
)

// ErrPortsExhausted is returned when the NAT has no free external ports.
var ErrPortsExhausted = errors.New("nf: NAT external port pool exhausted")

// ErrBindingsExhausted is returned when the binding table is full and
// the eviction policy refuses to make room (EvictNone).
var ErrBindingsExhausted = errors.New("nf: NAT binding table exhausted")

// NATConfig bounds the binding table and selects what happens at the
// bound. The zero value preserves the historical behaviour: bindings
// bounded only by the 55536-port external pool, fail closed on
// exhaustion.
type NATConfig struct {
	// MaxBindings bounds the translation table (<=0 means bounded only
	// by the external port pool).
	MaxBindings int
	// Policy is applied when a new flow arrives at a full table.
	// EvictNone refuses the flow (ErrBindingsExhausted); the eviction
	// policies tear down a victim binding and recycle its port.
	Policy EvictPolicy
	// Seed drives eviction randomness (EvictRandom only).
	Seed uint64
}

// NAT implements source NAT (masquerading): outbound flows get their
// source address rewritten to the external address and their source
// port to an allocated external port. Checksums are fixed incrementally
// (RFC 1624) rather than recomputed — the realistic fast path.
type NAT struct {
	name     string
	extern   packet.Addr4
	cfg      NATConfig
	nextPort uint16
	minPort  uint16
	bindings *FlowTable
	used     map[uint16]bool
	// Hits and Misses count established-flow rewrites vs new bindings.
	Hits, Misses uint64
	// Exhausted counts flows refused because neither a port nor a
	// binding slot could be found — attributed state-pressure drops.
	Exhausted uint64
}

// NewNAT builds a source NAT with external address extern, allocating
// ports from 10000 upward.
func NewNAT(name string, extern packet.Addr4) *NAT {
	return NewNATWith(name, extern, NATConfig{})
}

// NewNATWith builds a source NAT with explicit binding-table bounds and
// degradation semantics.
func NewNATWith(name string, extern packet.Addr4, cfg NATConfig) *NAT {
	maxBindings := cfg.MaxBindings
	if maxBindings <= 0 {
		// The port pool is the real bound; size the table to match so
		// Put never evicts before the pool runs dry.
		maxBindings = 65536
	}
	return &NAT{
		name:     name,
		extern:   extern,
		cfg:      cfg,
		minPort:  10000,
		nextPort: 10000,
		bindings: NewFlowTable(maxBindings, cfg.Policy, cfg.Seed),
		used:     make(map[uint16]bool),
	}
}

// Name implements Func.
func (n *NAT) Name() string { return n.name }

// Bindings returns the number of active translations.
func (n *NAT) Bindings() int { return n.bindings.Len() }

// MaxBindings returns the binding-table bound.
func (n *NAT) MaxBindings() int { return n.bindings.Cap() }

// Evicted returns the number of bindings torn down to admit new flows.
func (n *NAT) Evicted() uint64 { return n.bindings.Evictions }

func (n *NAT) allocPort() (uint16, error) {
	for tries := 0; tries < 65536; tries++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = n.minPort
		}
		if p >= n.minPort && !n.used[p] {
			n.used[p] = true
			return p, nil
		}
	}
	return 0, ErrPortsExhausted
}

// Process implements Func. IPv4 TCP/UDP packets are rewritten in place;
// anything else passes through unmodified.
func (n *NAT) Process(p *packet.Parser, frame []byte) (Result, error) {
	ft, ok := p.FiveTuple()
	if !ok {
		return Result{Verdict: Accept, Cycles: CyclesParse}, nil
	}
	port, hit := n.bindings.Use(ft)
	cycles := uint64(CyclesParse + CyclesNATHit)
	if !hit {
		newPort, err := n.allocPort()
		if err != nil {
			n.Exhausted++
			return Result{Verdict: Drop, Cycles: cycles}, err
		}
		_, victimPort, evicted, inserted := n.bindings.Put(ft, uint32(newPort))
		if !inserted {
			// Full table, EvictNone: release the port and fail closed
			// with the refusal attributed to binding exhaustion.
			delete(n.used, newPort)
			n.Exhausted++
			return Result{Verdict: Drop, Cycles: cycles},
				fmt.Errorf("%w: %d bindings", ErrBindingsExhausted, n.bindings.Cap())
		}
		if evicted {
			// Recycle the victim's external port — evictions must not
			// leak pool capacity.
			delete(n.used, uint16(victimPort))
		}
		port = uint32(newPort)
		cycles += CyclesNATMiss
		n.Misses++
	} else {
		n.Hits++
	}

	if err := rewriteSource(p, frame, n.extern, uint16(port)); err != nil {
		return Result{Verdict: Drop, Cycles: cycles}, err
	}
	return Result{Verdict: Rewritten, Cycles: cycles}, nil
}

// rewriteSource rewrites the IPv4 source address and transport source
// port in frame, updating the IP and transport checksums incrementally.
func rewriteSource(p *packet.Parser, frame []byte, newAddr packet.Addr4, newPort uint16) error {
	ethLen := p.Eth.HeaderLen()
	ipStart := ethLen
	ipHdrLen := p.IP4.HeaderLen()
	if len(frame) < ipStart+ipHdrLen {
		return fmt.Errorf("nf: frame shorter than parsed headers")
	}
	oldAddr := p.IP4.Src

	// IP header: source address bytes 12..16, checksum bytes 10..12.
	ipCheck := beU16(frame[ipStart+10:])
	ipCheck = packet.UpdateChecksum32(ipCheck, oldAddr.Uint32(), newAddr.Uint32())
	copy(frame[ipStart+12:ipStart+16], newAddr[:])
	putU16(frame[ipStart+10:], ipCheck)

	l4Start := ipStart + ipHdrLen
	switch p.IP4.Protocol {
	case packet.ProtoTCP:
		if len(frame) < l4Start+packet.TCPMinHeaderLen {
			return fmt.Errorf("nf: truncated TCP header")
		}
		oldPort := beU16(frame[l4Start:])
		check := beU16(frame[l4Start+16:])
		// TCP checksum covers the pseudo-header (address) and the port.
		check = packet.UpdateChecksum32(check, oldAddr.Uint32(), newAddr.Uint32())
		check = packet.UpdateChecksum16(check, oldPort, newPort)
		putU16(frame[l4Start:], newPort)
		putU16(frame[l4Start+16:], check)
	case packet.ProtoUDP:
		if len(frame) < l4Start+packet.UDPHeaderLen {
			return fmt.Errorf("nf: truncated UDP header")
		}
		oldPort := beU16(frame[l4Start:])
		check := beU16(frame[l4Start+6:])
		if check != 0 { // zero means "no checksum" in UDP/IPv4
			check = packet.UpdateChecksum32(check, oldAddr.Uint32(), newAddr.Uint32())
			check = packet.UpdateChecksum16(check, oldPort, newPort)
			if check == 0 {
				check = 0xffff
			}
			putU16(frame[l4Start+6:], check)
		}
		putU16(frame[l4Start:], newPort)
	}
	return nil
}

func beU16(b []byte) uint16     { return uint16(b[0])<<8 | uint16(b[1]) }
func putU16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
