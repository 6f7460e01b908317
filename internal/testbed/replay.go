package testbed

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Trace replay: the deployment can be driven from a recorded trace
// instead of a synthetic generator (substituting for pcap replay of
// production traces). Replayed frames enter through the same ingress
// step as generated ones, so fault specs strike both alike.

// RunTrace replays a recorded trace through the deployment at its
// recorded timestamps (scaled by stretch; 1 = real pacing, 0.5 = twice
// as fast). The trace is read fully before simulation starts.
func (d *Deployment) RunTrace(tr *workload.TraceReader, stretch float64) (Result, error) {
	if stretch <= 0 {
		return Result{}, fmt.Errorf("testbed: non-positive stretch %v", stretch)
	}
	type rec struct {
		at    sim.Time
		frame []byte
	}
	var recs []rec
	for {
		r, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Result{}, err
		}
		recs = append(recs, rec{at: sim.Time(float64(r.TimestampNanos) * 1e-9 * stretch), frame: r.Frame})
	}
	if len(recs) == 0 {
		return Result{}, fmt.Errorf("testbed: empty trace")
	}
	horizon := recs[len(recs)-1].at + 1e-6
	// The kernel fires equal times in scheduling order, so scheduling the
	// records stably sorted by time fires them in the order scheduling
	// them in file order would, and one callback walking the sorted slice
	// serves every record.
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.at, b.at) })

	if err := d.beginRun(horizon); err != nil {
		return Result{}, err
	}
	// A record's flow is parsed from the recorded bytes, before offer's
	// link faults, so a corrupted frame keeps its flow exactly as a
	// generated packet keeps the flow it was drawn for.
	scratch := packet.NewParser()
	next := 0
	arrive := d.s.Register(func() {
		pk := workload.Pkt{Frame: recs[next].frame}
		next++
		if err := scratch.Parse(pk.Frame); err == nil {
			if ft, ok := scratch.FiveTuple(); ok {
				pk.Flow = ft
			}
		}
		d.offer(pk)
	})
	for _, r := range recs {
		if err := d.s.AtCallback(r.at, arrive); err != nil {
			return Result{}, err
		}
	}
	d.s.Run(horizon + 1)
	return d.collect(horizon)
}
