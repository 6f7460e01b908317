package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"fairbench/internal/report"
	"fairbench/internal/runner"
)

// The reporter turns a sweep's journal into answers to the questions
// the paper says evaluations must be able to answer about themselves:
// where did the wall-clock time go (slowest cells, critical path), what
// did fault tolerance cost (retry hotspots, quarantines), and how well
// was the hardware used (pool utilization). The same records render as
// a per-worker Gantt chart so a sweep's schedule is inspectable at a
// glance.

// SummaryName and GanttName are the artifact filenames rendered into
// the output directory. Both carry the telemetry- prefix
// IsTelemetryFile excludes from byte-identity comparisons.
const (
	SummaryName = "telemetry-summary.txt"
	GanttName   = "telemetry-gantt.svg"
)

// CellSummary is one cell of the sweep as this run saw it.
type CellSummary struct {
	Cell string
	// Worker is the pool worker that ran the cell, -1 for a cell this
	// run did not execute (resume-skip, cutoff).
	Worker int
	// Status is the journaled status, or "resume-skip" / "cutoff".
	Status    string
	Attempts  int
	WallMS    float64
	BackoffMS float64
	// Error is the first line of the final error.
	Error string
	Tries []runner.Try
}

// Summary is the whole-run rollup.
type Summary struct {
	// Workers is the width the worker pool started with.
	Workers int
	// Cells lists every cell of the sweep once, sorted by name.
	Cells []CellSummary
	// Terminal-state counts; ResumeSkips and Cutoffs count cells that
	// never ran this run.
	OK, Failed, Quarantined, ResumeSkips, Cutoffs int
	Retries                                       int
	PoolShrinks                                   int
	// WallMS runs from the start of the worker pool to the end of the
	// last cell.
	WallMS float64
	// BusyMS totals cell wall time across workers; UtilizationPct is
	// BusyMS / (Workers × WallMS).
	BusyMS         float64
	UtilizationPct float64
	// CriticalPathMS is the longest single cell — no schedule at any
	// worker count can finish faster. IdealWallMS is the perfect-
	// packing bound BusyMS / Workers; actual wall beyond max(critical,
	// ideal) is scheduling slack or non-cell overhead.
	CriticalPathMS float64
	IdealWallMS    float64
	// Runtime figures read once, when the summary is made at the end
	// of the run.
	HeapBytes uint64
	GCCycles  uint32
	GCPauseMS float64
}

// Summarize rolls up the run res reports on: the cells from its
// journal, the pool width, cutoffs and pool shrinks from res, and the
// runtime's heap and GC totals as they stand now.
func Summarize(res runner.Result) (Summary, error) {
	_, recs, _, err := runner.LoadJournal(res.JournalPath)
	if err != nil {
		return Summary{}, err
	}
	s := summarize(recs, res)
	s.HeapBytes, s.GCCycles, s.GCPauseMS = runtimeSample()
	return s, nil
}

// summarize rolls up journal records. A record without Timing was kept
// from an earlier run and counts as a resume-skip.
func summarize(recs []runner.Record, res runner.Result) Summary {
	s := Summary{Workers: max(res.Workers, 1), PoolShrinks: res.WorkersShrunk}
	for _, rec := range recs {
		if rec.Timing == nil {
			s.ResumeSkips++
			s.Cells = append(s.Cells, CellSummary{Cell: rec.Experiment, Worker: -1, Status: "resume-skip"})
			continue
		}
		c := CellSummary{
			Cell:      rec.Experiment,
			Worker:    rec.Timing.Worker,
			Status:    string(rec.Status),
			Attempts:  rec.Attempts,
			WallMS:    rec.WallMS,
			BackoffMS: rec.WallMS,
			Tries:     rec.Timing.Tries,
		}
		c.Error, _, _ = strings.Cut(rec.Error, "\n")
		for _, try := range c.Tries {
			c.BackoffMS -= try.WallMS
		}
		switch rec.Status {
		case runner.StatusOK:
			s.OK++
		case runner.StatusFailed:
			s.Failed++
		case runner.StatusQuarantined:
			s.Quarantined++
		}
		s.Retries += c.Attempts - 1
		s.BusyMS += c.WallMS
		s.CriticalPathMS = max(s.CriticalPathMS, c.WallMS)
		if len(c.Tries) > 0 {
			s.WallMS = max(s.WallMS, c.Tries[0].StartMS+c.WallMS)
		}
		s.Cells = append(s.Cells, c)
	}
	for _, name := range res.UnfinishedExperiments {
		s.Cutoffs++
		s.Cells = append(s.Cells, CellSummary{Cell: name, Worker: -1, Status: "cutoff"})
	}
	sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i].Cell < s.Cells[j].Cell })
	s.IdealWallMS = s.BusyMS / float64(s.Workers)
	if s.WallMS > 0 {
		s.UtilizationPct = 100 * s.BusyMS / (float64(s.Workers) * s.WallMS)
	}
	return s
}

// runtimeSample reads the heap in use, the GC cycles and the
// cumulative GC pause. MemStats is the one runtime source with an
// exact pause total; runtime/metrics reports pauses as a histogram.
func runtimeSample() (heap uint64, cycles uint32, pauseMS float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.NumGC, float64(ms.PauseTotalNs) / 1e6
}

// slowestShown is how many cells the summary lists as slowest.
const slowestShown = 5

// Slowest returns up to n cells that ran this run, by descending wall
// duration (name tie-break).
func (s Summary) Slowest(n int) []CellSummary {
	var out []CellSummary
	for _, c := range s.Cells {
		if c.WallMS > 0 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallMS > out[j].WallMS })
	return out[:min(n, len(out))]
}

// RetryHotspots returns the cells that needed more than one attempt,
// most attempts first (name tie-break).
func (s Summary) RetryHotspots() []CellSummary {
	var out []CellSummary
	for _, c := range s.Cells {
		if c.Attempts > 1 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Attempts > out[j].Attempts })
	return out
}

// Text renders the operator-facing run summary.
func (s Summary) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: sweep — %d cells at %d workers in %.0f ms wall\n",
		len(s.Cells), s.Workers, s.WallMS)
	fmt.Fprintf(&b, "outcomes: %d ok, %d failed, %d quarantined, %d resume-skipped, %d cut off; %d retries",
		s.OK, s.Failed, s.Quarantined, s.ResumeSkips, s.Cutoffs, s.Retries)
	if s.PoolShrinks > 0 {
		fmt.Fprintf(&b, "; pool shrank %d time(s)", s.PoolShrinks)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "pool utilization: %.0f%% (busy %.0f ms across %d workers over %.0f ms)\n",
		s.UtilizationPct, s.BusyMS, s.Workers, s.WallMS)
	fmt.Fprintf(&b, "lower bounds: critical path %.0f ms (longest cell), ideal packing %.0f ms (busy/workers)\n",
		s.CriticalPathMS, s.IdealWallMS)
	if slow := s.Slowest(slowestShown); len(slow) > 0 {
		b.WriteString("slowest cells:\n")
		for _, c := range slow {
			fmt.Fprintf(&b, "  %-32s %8.1f ms  (%d attempt(s), %s)\n", c.Cell, c.WallMS, c.Attempts, c.Status)
		}
	}
	if hot := s.RetryHotspots(); len(hot) > 0 {
		b.WriteString("retry hotspots:\n")
		for _, c := range hot {
			final := ""
			if c.Error != "" {
				final = " (final error: " + c.Error + ")"
			}
			fmt.Fprintf(&b, "  %-32s %d attempts%s, %.0f ms in backoff\n", c.Cell, c.Attempts, final, c.BackoffMS)
		}
	}
	fmt.Fprintf(&b, "runtime at end: %.1f MiB heap, %d GC cycles, %.1f ms cumulative GC pause\n",
		float64(s.HeapBytes)/(1<<20), s.GCCycles, s.GCPauseMS)
	return b.String()
}

// Gantt renders the cells as a per-worker execution chart: one lane
// per pool worker, one segment per attempt, colored by outcome (ok /
// failed / quarantined / retried attempt / backoff wait). Cells this
// run did not execute are not drawn. It is the wall-clock sibling of
// internal/report's virtual-time timeline.
func (s Summary) Gantt() string {
	lanes := map[int][]report.TimelineSpan{}
	for _, c := range s.Cells {
		if len(c.Tries) == 0 {
			continue
		}
		spans := lanes[c.Worker]
		for i, try := range c.Tries {
			class, label := "retry", ""
			next := c.Tries[0].StartMS + c.WallMS // the cell's end
			if i == len(c.Tries)-1 {
				class, label = c.Status, c.Cell
			} else {
				next = c.Tries[i+1].StartMS
			}
			end := try.StartMS + try.WallMS
			spans = append(spans, report.TimelineSpan{Start: try.StartMS, End: end, Class: class, Label: label})
			if next > end {
				spans = append(spans, report.TimelineSpan{Start: end, End: next, Class: "backoff"})
			}
		}
		lanes[c.Worker] = spans
	}
	workers := make([]int, 0, len(lanes))
	for w := range lanes {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	tl := report.Timeline{
		Title:  "Cell execution by pool worker (wall clock)",
		XLabel: "wall-clock ms since run start",
	}
	for _, w := range workers {
		spans := lanes[w]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		tl.Lanes = append(tl.Lanes, report.TimelineLane{Name: fmt.Sprintf("worker %d", w), Spans: spans})
	}
	return tl.SVG()
}

// WriteArtifacts renders the summary and the Gantt into dir. Their
// names carry the telemetry- prefix, so byte-identity comparisons
// exclude them along with the journal.
func (s Summary) WriteArtifacts(dir string) error {
	if err := os.WriteFile(filepath.Join(dir, SummaryName), []byte(s.Text()), 0o644); err != nil {
		return fmt.Errorf("telemetry: summary: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, GanttName), []byte(s.Gantt()), 0o644); err != nil {
		return fmt.Errorf("telemetry: gantt: %w", err)
	}
	return nil
}
