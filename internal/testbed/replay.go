package testbed

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"fairbench/internal/fault"
	"fairbench/internal/measure"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Trace replay and failure injection: the deployment can be driven from
// a recorded trace instead of a synthetic generator (substituting for
// pcap replay of production traces), and the ingress path can inject
// impairments — drops, corruption, duplication — to exercise the
// decoders' validation and the meters' loss attribution under fault.

// Impairments configures ingress fault injection. Probabilities are per
// packet and independent.
type Impairments struct {
	// DropProb drops the packet before it reaches any device.
	DropProb float64
	// CorruptProb flips one random byte of the frame (a private copy),
	// which the IPv4 checksum validation then catches.
	CorruptProb float64
	// DupProb injects the packet twice.
	DupProb float64
	// Seed drives the impairment stream (default 7).
	Seed uint64
}

// Validate checks probability ranges.
func (im Impairments) Validate() error {
	for _, p := range []float64{im.DropProb, im.CorruptProb, im.DupProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("testbed: impairment probability %v outside [0,1]", p)
		}
	}
	return nil
}

func (im Impairments) enabled() bool {
	return im.DropProb > 0 || im.CorruptProb > 0 || im.DupProb > 0
}

func (im Impairments) rng() *sim.RNG {
	seed := im.Seed
	if seed == 0 {
		seed = 7
	}
	//fairlint:allow seedprov zero Impairments.Seed selects the documented default stream
	return sim.NewRNG(seed).Derive("impair")
}

// ImpairStats counts injected faults.
type ImpairStats struct {
	Dropped, Corrupted, Duplicated uint64
}

// RunWithImpairments is Run with ingress fault injection. Impaired
// drops count as loss (the DUT never saw the packet but the offered
// load included it); corrupted frames reach the DUT and are expected to
// be rejected by header validation.
func (d *Deployment) RunWithImpairments(gen *workload.Generator, arrival workload.Arrival, offeredPps, durationSeconds float64, im Impairments) (Result, ImpairStats, error) {
	if err := im.Validate(); err != nil {
		return Result{}, ImpairStats{}, err
	}
	var stats ImpairStats
	if !im.enabled() {
		res, err := d.Run(gen, arrival, offeredPps, durationSeconds)
		return res, stats, err
	}
	rng := im.rng()
	res, err := d.runInjected(arrival, offeredPps, durationSeconds, gen.ArrivalRNG(), func() error {
		pk, err := gen.NextCopy()
		if err != nil {
			return err
		}
		d.tput.Offer(len(pk.Frame))
		if rng.Float64() < im.DropProb {
			stats.Dropped++
			d.tput.Lose()
			return nil
		}
		if rng.Float64() < im.CorruptProb {
			stats.Corrupted++
			pk.Frame[rng.Intn(len(pk.Frame))] ^= 0xff
		}
		d.dispatch(pk)
		if rng.Float64() < im.DupProb {
			stats.Duplicated++
			dup := pk
			dup.Frame = append([]byte(nil), pk.Frame...)
			d.tput.Offer(len(dup.Frame))
			d.dispatch(dup)
		}
		return nil
	}, nil)
	return res, stats, err
}

// RunTrace replays a recorded trace through the deployment at its
// recorded timestamps (scaled by stretch; 1 = real pacing, 0.5 = twice
// as fast). The trace is read fully before simulation starts.
func (d *Deployment) RunTrace(tr *workload.TraceReader, stretch float64) (Result, error) {
	res, _, err := d.runTrace(tr, stretch, nil, fault.Spec{})
	return res, err
}

// runTrace is the shared replay engine; inj == nil replays fault-free.
func (d *Deployment) runTrace(tr *workload.TraceReader, stretch float64, inj *fault.Injector, spec fault.Spec) (Result, FaultReport, error) {
	if stretch <= 0 {
		return Result{}, FaultReport{}, fmt.Errorf("testbed: non-positive stretch %v", stretch)
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
			return Result{}, FaultReport{}, err
		}
		recs = append(recs, rec{at: sim.Time(float64(r.TimestampNanos) * 1e-9 * stretch), frame: r.Frame})
	}
	if len(recs) == 0 {
		return Result{}, FaultReport{}, fmt.Errorf("testbed: empty trace")
	}
	horizon := recs[len(recs)-1].at + 1e-6
	// The kernel fires equal times in scheduling order, so scheduling the
	// records stably sorted by time fires them in the order scheduling
	// them in file order would, and one callback walking the sorted slice
	// serves every record.
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.at, b.at) })

	rep := FaultReport{Spec: spec}
	d.beginRun(horizon)
	if inj != nil {
		if err := d.armFaults(inj, horizon); err != nil {
			return Result{}, FaultReport{}, err
		}
	}
	scratch := packet.NewParser()
	next := 0
	arrive := func() {
		frame := recs[next].frame
		next++
		d.tput.Offer(len(frame))
		if inj != nil {
			if inj.DropArrival() {
				rep.LinkDropped++
				d.tput.Lose()
				d.avail.Offer(d.s.Now().Seconds())
				return
			}
			if idx, corrupt := inj.CorruptArrival(len(frame)); corrupt {
				rep.LinkCorrupted++
				frame = append([]byte(nil), frame...)
				frame[idx] ^= 0xff
			}
		}
		pk := workload.Pkt{Frame: frame}
		if err := scratch.Parse(frame); err == nil {
			if ft, ok := scratch.FiveTuple(); ok {
				pk.Flow = ft
			}
		}
		d.dispatch(pk)
	}
	for _, r := range recs {
		if err := d.s.At(r.at, arrive); err != nil {
			return Result{}, FaultReport{}, err
		}
	}
	d.s.Run(horizon + 1)
	res, err := d.collect(horizon)
	if err != nil {
		return Result{}, FaultReport{}, err
	}
	if inj != nil {
		rep.Windows = inj.Windows()
		rep.Avail, err = d.avail.Summarize(measure.DefaultAvailabilityThreshold)
		if err != nil {
			return Result{}, FaultReport{}, fmt.Errorf("testbed: %s: availability: %w", d.cfg.Name, err)
		}
	}
	return res, rep, nil
}
