// Package nf implements network functions that do genuine per-packet
// work over frames from internal/packet: a 5-tuple firewall with two
// matcher implementations, and a stateful connection tracker in front
// of it with a bounded flow table.
//
// Every Process call returns the number of abstract CPU cycles the
// operation consumed, derived from the work actually performed (rules
// scanned, bytes inspected, hashes computed). The hardware models in
// internal/hw convert cycles to simulated time and energy, which is how
// the reproduced performance-cost points stay measurements rather than
// constants.
package nf

import (
	"fairbench/internal/packet"
)

// Verdict is a network function's decision about a packet.
type Verdict int

const (
	// Accept forwards the packet unchanged.
	Accept Verdict = iota
	// Drop discards the packet.
	Drop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Drop:
		return "drop"
	default:
		return "unknown"
	}
}

// Result reports a processing outcome and its cycle cost.
type Result struct {
	Verdict Verdict
	// Cycles is the abstract CPU cycle cost of this packet, derived
	// from work performed.
	Cycles uint64
}

// Func is a network function. Implementations receive the parsed view
// of the frame (the caller owns and reuses the parser) and must not
// modify the frame. Implementations are not safe for concurrent use
// unless stated; per-core pipelines own their instances.
type Func interface {
	// Process handles one packet.
	Process(p *packet.Parser, frame []byte) (Result, error)
}

// Cycle cost model. The constants approximate a ~3 GHz x86 core running
// a DPDK-style run-to-completion dataplane; their absolute values only
// set the simulator's clock scale, while their ratios (per-rule scan vs
// hash lookup) shape the performance differences between
// implementations — which is what the evaluation methodology consumes.
const (
	// CyclesParse is charged for header parsing and validation.
	CyclesParse = 60
	// CyclesPerLinearRule is charged per rule examined in a linear scan.
	CyclesPerLinearRule = 6
	// CyclesPerTupleGroup is charged per mask-group hash lookup.
	CyclesPerTupleGroup = 24
)
