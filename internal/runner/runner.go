package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPanic wraps a panic recovered from an experiment.
var ErrPanic = errors.New("runner: experiment panicked")

// ErrDeadline wraps a per-experiment wall-clock deadline overrun.
var ErrDeadline = errors.New("runner: experiment deadline exceeded")

// ErrRunDeadline is recorded for cells the whole-run deadline cut off:
// cells still queued when it fired, and cells whose retry backoff it
// interrupted.
var ErrRunDeadline = errors.New("runner: run deadline exceeded")

// Artifact is one named output file of an experiment.
type Artifact struct {
	Name string
	Body []byte
}

// Experiment is one cell of a sweep. Run receives the attempt number
// (0 on the first try, incremented on each retry) so it can derive a
// fresh seed when a measurement comes back non-finite. Cells scheduled
// in the same sweep may run concurrently (Options.Jobs), so Run must
// not share mutable state with other cells.
type Experiment struct {
	Name string
	Run  func(attempt int) ([]Artifact, error)
}

// Options configures a sweep.
type Options struct {
	// OutDir receives the artifacts, the journal and the manifest.
	OutDir string
	// Jobs is the worker-pool width: how many cells run concurrently.
	// Values <= 1 run the sweep serially. Jobs never changes the merged
	// output — results are merged in cell order, so a sweep is
	// byte-identical at any Jobs value — and it is deliberately excluded
	// from resume fingerprints. Use NormalizeJobs to map a user-facing
	// flag value onto a sane pool width.
	Jobs int
	// Timeout is the per-experiment wall-clock deadline (0 = none).
	Timeout time.Duration
	// RunTimeout is the whole-run wall-clock deadline (0 = none). When
	// it fires, in-flight cells finish (bounded by Timeout) but queued
	// cells are recorded as unfinished; a later Resume picks them up.
	RunTimeout time.Duration
	// Retries is the number of extra attempts granted when ShouldRetry
	// approves the error.
	Retries int
	// ShouldRetry decides whether an error is transient (e.g. a
	// non-finite measurement that a fresh seed may fix). Nil disables
	// retries.
	ShouldRetry func(error) bool
	// Backoff spaces retries with capped exponential, deterministically
	// jittered delays. The zero value retries immediately.
	Backoff BackoffConfig
	// Resume skips experiments the journal (or, for output directories
	// predating the journal, the manifest) records as completed with all
	// artifacts intact on disk.
	Resume bool
	// Fingerprint identifies the option set producing the artifacts;
	// Resume refuses to mix fingerprints. By contract it must not
	// encode Jobs: a serial run may be resumed in parallel and vice
	// versa.
	Fingerprint string
	// Log receives one line per experiment (nil discards).
	Log io.Writer
	// WriteArtifact overrides artifact IO (nil = WriteFileAtomic). The
	// chaos harness injects torn writes and ENOSPC here.
	WriteArtifact func(path string, data []byte, perm os.FileMode) error
}

// Result summarises a sweep.
type Result struct {
	Manifest Manifest
	// Ran counts cells executed this run; Skipped counts cells Resume
	// found already complete.
	Ran, Skipped int
	// Failed counts cells with a non-retryable error; Quarantined
	// counts cells that failed every granted retry; Unfinished counts
	// cells the run deadline cut off before they started.
	Failed, Quarantined, Unfinished int
	ArtifactsWritten                int
	// Workers is the width the pool started with: Jobs, capped at the
	// number of cells left to run (0 when none was). WorkersShrunk
	// counts pool workers retired by repeated panics.
	Workers, WorkersShrunk int
	// CellWalls records the wall-clock duration of every completed
	// cell, including cells a resumed run skipped (their durations come
	// from the journal). Durations are operator-facing only: they are
	// stripped from the manifest so its bytes stay identical across
	// runs and Jobs values.
	CellWalls              []CellWall
	ManifestPath           string
	JournalPath            string
	FailedExperiments      []string
	QuarantinedExperiments []string
	UnfinishedExperiments  []string
}

// CellWall pairs a cell with its recorded wall-clock duration, for
// operator-facing summaries. Wall durations live in the journal (a
// completion-order log outside the determinism surface) and in these
// summaries — never in the manifest, whose bytes must not vary run to
// run.
type CellWall struct {
	Experiment string
	WallMS     float64
}

// Err returns a non-nil error when any experiment failed, was
// quarantined, or was cut off by the run deadline — after the whole
// sweep has run; callers decide whether that is fatal.
func (r Result) Err() error {
	if r.Failed == 0 && r.Quarantined == 0 && r.Unfinished == 0 {
		return nil
	}
	total := r.Ran + r.Skipped + r.Unfinished
	var parts []string
	if r.Failed > 0 {
		parts = append(parts, fmt.Sprintf("%d failed %v", r.Failed, r.FailedExperiments))
	}
	if r.Quarantined > 0 {
		parts = append(parts, fmt.Sprintf("%d quarantined %v", r.Quarantined, r.QuarantinedExperiments))
	}
	if r.Unfinished > 0 {
		parts = append(parts, fmt.Sprintf("%d unfinished %v", r.Unfinished, r.UnfinishedExperiments))
	}
	out := fmt.Sprintf("runner: of %d experiments: %s", total, parts[0])
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return errors.New(out)
}

// Run executes the sweep. Independent cells fan out across a bounded
// worker pool (Options.Jobs); every cell runs inside panic isolation
// and (when configured) a wall-clock deadline, and a failure is
// recorded instead of aborting the sweep. Each completed cell is
// appended to an fsync'd JSONL journal, so a killed sweep loses at
// most the cells it was inside — never a written artifact and never a
// journaled record. After all cells finish, records are merged in the
// input cell order into the manifest, which makes the merged outputs
// byte-identical to a serial run at any Jobs value.
func Run(experiments []Experiment, o Options) (Result, error) {
	if o.OutDir == "" {
		return Result{}, fmt.Errorf("runner: no output directory")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return Result{}, err
	}
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		if o.Log != nil {
			logMu.Lock()
			fmt.Fprintf(o.Log, format+"\n", args...)
			logMu.Unlock()
		}
	}

	manifestPath := filepath.Join(o.OutDir, ManifestName)
	journalPath := filepath.Join(o.OutDir, JournalName)
	res := Result{ManifestPath: manifestPath, JournalPath: journalPath}

	prior, err := loadPrior(journalPath, manifestPath, o)
	if err != nil {
		return Result{}, err
	}

	// Partition cells into resume-skips and pending work, preserving
	// the canonical input order.
	skipped := map[string]bool{}
	var pending []Experiment
	for _, exp := range experiments {
		if o.Resume && completedRecord(prior[exp.Name], o.OutDir) {
			skipped[exp.Name] = true
			res.Skipped++
			logf("skip %s (resume: complete)", exp.Name)
			continue
		}
		pending = append(pending, exp)
	}

	// The journal is rewritten atomically at the start of every run:
	// header plus every record kept from a resumed run, then one
	// appended record per completed cell. Kept records lose their
	// Timing, which placed them on an earlier run's clock.
	var kept []Record
	for _, exp := range experiments {
		if skipped[exp.Name] {
			rec := prior[exp.Name]
			rec.Timing = nil
			kept = append(kept, rec)
		}
	}
	j, err := startJournal(journalPath, o.Fingerprint, kept)
	if err != nil {
		return res, err
	}
	defer j.Close()

	results := runPool(pending, o, j, logf, &res)

	// Merge in canonical cell order: the manifest (and therefore the
	// full artifact directory) is byte-identical at any Jobs value.
	manifest := Manifest{Version: manifestVersion, Fingerprint: o.Fingerprint}
	// Wall durations are collected for the operator summary and then
	// stripped, with the timing, from the records entering the
	// manifest: the manifest is a determinism surface (byte-identical
	// at any Jobs value, across runs and machines), and wall time is
	// not.
	ri := 0
	for _, exp := range experiments {
		var rec Record
		if skipped[exp.Name] {
			rec = prior[exp.Name]
		} else {
			r := results[ri]
			ri++
			if r == nil { // run deadline cut this cell off before it started
				res.Unfinished++
				res.UnfinishedExperiments = append(res.UnfinishedExperiments, exp.Name)
				continue
			}
			rec = *r
			res.Ran++
			switch rec.Status {
			case StatusFailed:
				res.Failed++
				res.FailedExperiments = append(res.FailedExperiments, exp.Name)
			case StatusQuarantined:
				res.Quarantined++
				res.QuarantinedExperiments = append(res.QuarantinedExperiments, exp.Name)
			default:
				res.ArtifactsWritten += len(rec.Artifacts)
			}
		}
		if rec.WallMS > 0 {
			res.CellWalls = append(res.CellWalls, CellWall{Experiment: rec.Experiment, WallMS: rec.WallMS})
		}
		rec.WallMS, rec.Timing = 0, nil
		manifest.Upsert(rec)
	}
	if err := manifest.Save(manifestPath); err != nil {
		return res, err
	}
	res.Manifest = manifest
	return res, nil
}

// loadPrior returns the latest record per cell from the journal, or —
// for output directories predating the journal — from the manifest,
// enforcing the fingerprint contract either way.
func loadPrior(journalPath, manifestPath string, o Options) (map[string]Record, error) {
	prior := map[string]Record{}
	if !o.Resume {
		return prior, nil
	}
	fp, recs, found, err := LoadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	if !found {
		m, err := LoadManifest(manifestPath)
		if err != nil {
			return nil, err
		}
		fp, recs = m.Fingerprint, m.Records
	}
	if len(recs) > 0 && fp != o.Fingerprint {
		return nil, fmt.Errorf("%w: journal has %q, options give %q (rerun without -resume or with matching flags)",
			ErrFingerprint, fp, o.Fingerprint)
	}
	for _, r := range recs {
		prior[r.Experiment] = r
	}
	return prior, nil
}

// shrinkAfter is the streak of consecutive panicking cells after which
// the pool retires one worker. A run of panics usually means a systemic
// resource problem that more parallelism makes worse; the pool shrinks
// gracefully down to one worker and the sweep still completes.
const shrinkAfter = 3

// runPool fans the pending cells across the worker pool and returns
// one record per cell, indexed like pending (nil = never started).
func runPool(pending []Experiment, o Options, j *journal, logf func(string, ...any), res *Result) []*Record {
	results := make([]*Record, len(pending))
	if len(pending) == 0 {
		return results
	}
	jobs := o.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(pending) {
		jobs = len(pending)
	}
	res.Workers = jobs
	// t0 is the origin of every Timing offset this run journals.
	t0 := time.Now()
	var deadline time.Time
	if o.RunTimeout > 0 {
		deadline = t0.Add(o.RunTimeout)
	}

	var next int64
	var poolMu sync.Mutex
	workers := jobs
	panicStreak := 0
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(pending) {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					// Leave the cell unstarted (results[i] stays nil) so a
					// later Resume runs exactly the missing work.
					logf("SKIP %s: %v", pending[i].Name, ErrRunDeadline)
					continue
				}
				rec, runErr := runCell(pending[i], o, t0, deadline, worker)
				results[i] = &rec
				if err := j.Append(rec); err != nil {
					logf("journal: %v", err)
				}
				switch rec.Status {
				case StatusOK:
					for _, a := range rec.Artifacts {
						logf("wrote %s (%d bytes)", filepath.Join(o.OutDir, a.Name), a.Bytes)
					}
				case StatusQuarantined:
					logf("QUARANTINE %s after %d attempts: %s", rec.Experiment, rec.Attempts, rec.Error)
				default:
					logf("FAIL %s: %s", rec.Experiment, rec.Error)
				}

				// Graceful pool shrink: a streak of panicking cells
				// retires workers (down to one) instead of hammering a
				// sick machine with full parallelism.
				poolMu.Lock()
				if errors.Is(runErr, ErrPanic) {
					panicStreak++
					if panicStreak >= shrinkAfter && workers > 1 {
						workers--
						panicStreak = 0
						res.WorkersShrunk++ // res is only read after wg.Wait
						remaining := workers
						poolMu.Unlock()
						logf("pool: retiring a worker after repeated panics (%d remain)", remaining)
						return
					}
				} else if rec.Status == StatusOK {
					panicStreak = 0
				}
				poolMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return results
}

// runCell executes one cell: retries with backoff, panic isolation,
// the per-cell deadline, and atomic artifact writes. The returned
// error is the cell's final error (nil on success) — the record is
// what lands in the journal, wall duration and timing included (the
// journal logs completion order and is not a determinism surface; the
// manifest strips both). Each attempt runs under a pprof label
// cell=<name>, so a CPU profile of the sweep splits by cell.
func runCell(exp Experiment, o Options, t0, deadline time.Time, worker int) (Record, error) {
	writeArtifact := o.WriteArtifact
	if writeArtifact == nil {
		writeArtifact = WriteFileAtomic
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rec := Record{Experiment: exp.Name, Status: StatusOK, Timing: &Timing{Worker: worker}}
	labels := pprof.Labels("cell", exp.Name)
	var start time.Time
	finish := func(end time.Time, err error) (Record, error) {
		rec.WallMS = ms(end.Sub(start))
		return rec, err
	}
	for attempt := 0; ; attempt++ {
		rec.Attempts = attempt + 1
		begin := time.Now()
		if attempt == 0 {
			start = begin
		}
		var artifacts []Artifact
		var err error
		pprof.Do(context.TODO(), labels, func(context.Context) {
			artifacts, err = callGuarded(exp, attempt, o.Timeout)
		})
		if err == nil {
			// Artifact IO is part of the attempt: a torn write or ENOSPC
			// is retried like a poisoned measurement, and every write is
			// atomic, so a retried cell simply re-lands its files.
			var arecs []ArtifactRecord
			for _, a := range artifacts {
				if werr := writeArtifact(filepath.Join(o.OutDir, a.Name), a.Body, 0o644); werr != nil {
					err = werr
					break
				}
				arecs = append(arecs, ArtifactRecord{Name: a.Name, Bytes: len(a.Body)})
			}
			if err == nil {
				rec.Artifacts = arecs
			}
		}
		end := time.Now()
		rec.Timing.Tries = append(rec.Timing.Tries, Try{StartMS: ms(begin.Sub(t0)), WallMS: ms(end.Sub(begin))})
		if err == nil {
			return finish(end, nil)
		}
		retryable := o.ShouldRetry != nil && o.ShouldRetry(err) && !errors.Is(err, ErrDeadline)
		if !retryable {
			rec.Status, rec.Error = StatusFailed, err.Error()
			return finish(end, err)
		}
		if attempt >= o.Retries {
			// Retry budget exhausted on a retryable error: quarantine the
			// cell so the sweep completes and reports it. With no budget
			// configured there is nothing to exhaust — plain failure.
			if o.Retries > 0 {
				rec.Status, rec.Error = StatusQuarantined, err.Error()
			} else {
				rec.Status, rec.Error = StatusFailed, err.Error()
			}
			return finish(end, err)
		}
		if !sleepBackoff(o.Backoff.delay(exp.Name, attempt), deadline) {
			rec.Status = StatusFailed
			rec.Error = fmt.Sprintf("%v during retry backoff (last error: %v)", ErrRunDeadline, err)
			return finish(time.Now(), ErrRunDeadline)
		}
	}
}

// sleepBackoff waits d, bounded by the run deadline. It reports false
// when the deadline fired first.
func sleepBackoff(d time.Duration, deadline time.Time) bool {
	if d <= 0 {
		return true
	}
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= d {
			if remaining > 0 {
				time.Sleep(remaining)
			}
			return false
		}
	}
	time.Sleep(d)
	return true
}

// callGuarded invokes the experiment with panic recovery and, when
// timeout > 0, a wall-clock deadline. On deadline overrun the worker
// goroutine is abandoned (the simulation is CPU-bound and has no
// cancellation point); its eventual result is discarded.
func callGuarded(exp Experiment, attempt int, timeout time.Duration) (artifacts []Artifact, err error) {
	type outcome struct {
		artifacts []Artifact
		err       error
	}
	run := func() (out outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = outcome{err: fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack())}
			}
		}()
		a, e := exp.Run(attempt)
		return outcome{artifacts: a, err: e}
	}
	if timeout <= 0 {
		out := run()
		return out.artifacts, out.err
	}
	ch := make(chan outcome, 1)
	go func() { ch <- run() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.artifacts, out.err
	case <-timer.C:
		return nil, fmt.Errorf("%w: %q exceeded %v", ErrDeadline, exp.Name, timeout)
	}
}
