// Package telemetry is the wall-clock observability layer for
// everything outside the deterministic simulation boundary. Where
// internal/obs traces virtual time inside the sim — byte-identical
// per seed, part of the artifact surface — telemetry reports what the
// harness itself did in real time: when each runner cell started and
// finished on which worker, how long retries backed off, where the
// worker pool sat idle, and what the Go runtime cost by the end.
//
// Its input is the runner's journal, the one wall-clock record of a
// sweep: each journaled record carries the cell's worker, its
// attempts' start offsets and wall times, and its total wall_ms. The
// reporter turns those records into a run summary and a cell-execution
// Gantt chart. Both are machine- and run-dependent by nature, so they
// are excluded from byte-identity guarantees exactly like the journal,
// and rendering them never feeds back into execution. fairlint's
// wallclock rule allowlists this package (alongside internal/runner)
// and continues to flag wall-clock reads everywhere else.
package telemetry

import (
	"strings"
	"time"
)

// IsTelemetryFile reports whether an output-directory entry belongs to
// the telemetry layer (the summary and Gantt artifacts rendered from
// the journal). Byte-identity comparisons exclude these names the same
// way they exclude the runner's journal: both record wall-clock
// execution history, not deterministic output.
func IsTelemetryFile(name string) bool {
	return strings.HasPrefix(name, "telemetry-")
}

// Wall is the wall clock, for timing code outside the packages
// fairlint's wallclock rule allowlists.
var Wall wallClock

type wallClock struct{}

// Now returns the current wall-clock time.
func (wallClock) Now() time.Time { return time.Now() }
