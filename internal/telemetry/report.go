package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fairbench/internal/report"
)

// The reporter turns a telemetry stream back into answers to the
// questions the paper says evaluations must be able to answer about
// themselves: where did the wall-clock time go (slowest cells,
// critical path), what did fault tolerance cost (retry hotspots,
// quarantines), and how well was the hardware used (pool
// utilization). The same stream renders as a per-worker Gantt chart
// so a sweep's schedule is inspectable at a glance.

// SummaryName and GanttName are the artifact filenames rendered next
// to the stream. Both carry the telemetry- prefix IsTelemetryFile
// excludes from byte-identity comparisons.
const (
	SummaryName = "telemetry-summary.txt"
	GanttName   = "telemetry-gantt.svg"
)

// RunLog is a parsed telemetry stream.
type RunLog struct {
	Header Header
	Events []Event
}

// Parse reads a stream. A torn final line (the process died
// mid-append) is dropped without error, like the runner's journal.
func Parse(r io.Reader) (*RunLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	log := &RunLog{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if err := json.Unmarshal([]byte(line), &log.Header); err != nil || log.Header.Telemetry != Format {
				return nil, fmt.Errorf("%w (header %.40q)", ErrFormat, line)
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Ev == "" {
			break // torn or corrupt: drop this line and everything after
		}
		log.Events = append(log.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: parse: %w", err)
	}
	if first {
		return nil, fmt.Errorf("%w (empty stream)", ErrFormat)
	}
	return log, nil
}

// ParseFile parses the stream at path.
func ParseFile(path string) (*RunLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open %s: %w", path, err)
	}
	defer f.Close()
	return Parse(f)
}

// CellSummary aggregates one cell's events.
type CellSummary struct {
	Cell      string
	Worker    int
	Status    string
	Attempts  int
	WallMS    float64
	BackoffMS float64
	Errors    []string // one per failed attempt: "panic", "timeout", "error"
}

// Summary is the whole-run rollup.
type Summary struct {
	Label string
	Jobs  int
	// Cells indexes every cell that appears in the stream, sorted by
	// name.
	Cells []CellSummary
	// Terminal-state counts; ResumeSkips and Cutoffs count cells that
	// never ran this run.
	OK, Failed, Quarantined, ResumeSkips, Cutoffs int
	Retries                                       int
	PoolShrinks                                   int
	// WallMS is the stream duration (first event to last).
	WallMS float64
	// BusyMS totals cell wall time across workers; UtilizationPct is
	// BusyMS / (Jobs × WallMS).
	BusyMS         float64
	UtilizationPct float64
	// CriticalPathMS is the longest single cell — no schedule at any
	// worker count can finish faster. IdealWallMS is the perfect-
	// packing bound BusyMS / Jobs; actual wall beyond max(critical,
	// ideal) is scheduling slack or non-cell overhead.
	CriticalPathMS float64
	IdealWallMS    float64
	// Peak runtime figures across samples.
	PeakGoroutines int
	PeakHeapBytes  uint64
	GCPauseMS      float64
	Samples        int
}

// Summarize rolls a parsed stream up.
func Summarize(log *RunLog) Summary {
	s := Summary{Label: log.Header.Label, Jobs: log.Header.Jobs}
	if s.Jobs < 1 {
		s.Jobs = 1
	}
	cells := map[string]*CellSummary{}
	cell := func(name string) *CellSummary {
		c := cells[name]
		if c == nil {
			c = &CellSummary{Cell: name, Worker: -1}
			cells[name] = c
		}
		return c
	}
	var firstT, lastT float64
	for i, ev := range log.Events {
		if i == 0 || ev.TMS < firstT {
			firstT = ev.TMS
		}
		if ev.TMS > lastT {
			lastT = ev.TMS
		}
		switch ev.Ev {
		case EvCellStart:
			c := cell(ev.Cell)
			c.Worker = ev.Worker
			if ev.Attempt > 0 {
				s.Retries++
			}
		case EvCellError:
			cell(ev.Cell).Errors = append(cell(ev.Cell).Errors, ev.Kind)
		case EvRetryWait:
			cell(ev.Cell).BackoffMS += ev.WaitMS
		case EvCellFinish:
			c := cell(ev.Cell)
			c.Status = ev.Status
			c.Attempts = ev.Attempts
			c.WallMS = ev.WallMS
			c.Worker = ev.Worker
			switch ev.Status {
			case "ok":
				s.OK++
			case "failed":
				s.Failed++
			case "quarantined":
				s.Quarantined++
			}
			s.BusyMS += ev.WallMS
		case EvResumeSkip:
			cell(ev.Cell).Status = "resume-skip"
			s.ResumeSkips++
		case EvCutoff:
			cell(ev.Cell).Status = "cutoff"
			s.Cutoffs++
		case EvPoolShrink:
			s.PoolShrinks++
		case EvSample:
			s.Samples++
			if ev.Goroutines > s.PeakGoroutines {
				s.PeakGoroutines = ev.Goroutines
			}
			if ev.HeapBytes > s.PeakHeapBytes {
				s.PeakHeapBytes = ev.HeapBytes
			}
			if ev.GCPauseMS > s.GCPauseMS {
				s.GCPauseMS = ev.GCPauseMS
			}
		}
	}
	s.WallMS = lastT - firstT
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := *cells[name]
		if c.WallMS > s.CriticalPathMS {
			s.CriticalPathMS = c.WallMS
		}
		s.Cells = append(s.Cells, c)
	}
	s.IdealWallMS = s.BusyMS / float64(s.Jobs)
	if s.WallMS > 0 {
		s.UtilizationPct = 100 * s.BusyMS / (float64(s.Jobs) * s.WallMS)
	}
	return s
}

// slowestShown is how many cells the summary lists as slowest.
const slowestShown = 5

// slowest returns up to slowestShown cells by descending wall duration
// (name tie-break).
func (s Summary) slowest() []CellSummary {
	out := append([]CellSummary(nil), s.Cells...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallMS > out[j].WallMS })
	if slowestShown < len(out) {
		out = out[:slowestShown]
	}
	return out
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
	label := s.Label
	if label == "" {
		label = "run"
	}
	fmt.Fprintf(&b, "telemetry: %s — %d cells at %d workers in %.0f ms wall\n",
		label, len(s.Cells), s.Jobs, s.WallMS)
	fmt.Fprintf(&b, "outcomes: %d ok, %d failed, %d quarantined, %d resume-skipped, %d cut off; %d retries",
		s.OK, s.Failed, s.Quarantined, s.ResumeSkips, s.Cutoffs, s.Retries)
	if s.PoolShrinks > 0 {
		fmt.Fprintf(&b, "; pool shrank %d time(s)", s.PoolShrinks)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "pool utilization: %.0f%% (busy %.0f ms across %d workers over %.0f ms)\n",
		s.UtilizationPct, s.BusyMS, s.Jobs, s.WallMS)
	fmt.Fprintf(&b, "lower bounds: critical path %.0f ms (longest cell), ideal packing %.0f ms (busy/workers)\n",
		s.CriticalPathMS, s.IdealWallMS)
	if slow := s.slowest(); len(slow) > 0 && slow[0].WallMS > 0 {
		b.WriteString("slowest cells:\n")
		for _, c := range slow {
			if c.WallMS <= 0 {
				break
			}
			fmt.Fprintf(&b, "  %-32s %8.1f ms  (%d attempt(s), %s)\n", c.Cell, c.WallMS, c.Attempts, c.Status)
		}
	}
	if hot := s.RetryHotspots(); len(hot) > 0 {
		b.WriteString("retry hotspots:\n")
		for _, c := range hot {
			fmt.Fprintf(&b, "  %-32s %d attempts (%s), %.0f ms in backoff\n",
				c.Cell, c.Attempts, strings.Join(c.Errors, ","), c.BackoffMS)
		}
	}
	if s.Samples > 0 {
		fmt.Fprintf(&b, "runtime peaks over %d samples: %d goroutines, %.1f MiB heap, %.1f ms cumulative GC pause\n",
			s.Samples, s.PeakGoroutines, float64(s.PeakHeapBytes)/(1<<20), s.GCPauseMS)
	}
	return b.String()
}

// Gantt renders the stream as a per-worker cell-execution chart: one
// lane per pool worker, one segment per attempt, colored by outcome
// (ok / failed / quarantined / retried attempt / backoff wait). It is
// the wall-clock sibling of internal/report's virtual-time timeline.
func Gantt(log *RunLog) string {
	type open struct {
		t       float64
		attempt int
	}
	lanes := map[int][]report.TimelineSpan{}
	pending := map[string]open{}
	finalAttempts := map[string]int{}
	for _, ev := range log.Events {
		if ev.Ev == EvCellFinish {
			finalAttempts[ev.Cell] = ev.Attempts
		}
	}
	addSpan := func(worker int, sp report.TimelineSpan) {
		lanes[worker] = append(lanes[worker], sp)
	}
	for _, ev := range log.Events {
		switch ev.Ev {
		case EvCellStart:
			pending[ev.Cell] = open{t: ev.TMS, attempt: ev.Attempt}
		case EvCellError:
			// An attempt that was retried afterwards draws as "retry";
			// the terminal attempt is drawn at cell-finish with the
			// cell's final status instead.
			if o, ok := pending[ev.Cell]; ok && ev.Attempt < finalAttempts[ev.Cell]-1 {
				addSpan(ev.Worker, report.TimelineSpan{
					Start: o.t, End: ev.TMS, Class: "retry",
				})
				delete(pending, ev.Cell)
			}
		case EvRetryWait:
			if ev.WaitMS > 0 {
				addSpan(ev.Worker, report.TimelineSpan{
					Start: ev.TMS, End: ev.TMS + ev.WaitMS, Class: "backoff",
				})
			}
		case EvCellFinish:
			o, ok := pending[ev.Cell]
			if !ok {
				o = open{t: ev.TMS - ev.WallMS}
			}
			delete(pending, ev.Cell)
			class := ev.Status
			if class == "" {
				class = "ok"
			}
			addSpan(ev.Worker, report.TimelineSpan{
				Start: o.t, End: ev.TMS, Class: class, Label: ev.Cell,
			})
		}
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
		name := fmt.Sprintf("worker %d", w)
		if w < 0 {
			name = "(no worker)"
		}
		spans := lanes[w]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		tl.Lanes = append(tl.Lanes, report.TimelineLane{Name: name, Spans: spans})
	}
	return tl.SVG()
}

// WriteArtifacts renders the summary and Gantt next to the stream at
// jsonlPath, returning the parsed summary for the caller's own
// reporting. Artifact names carry the telemetry- prefix, so
// byte-identity comparisons exclude them along with the stream.
func WriteArtifacts(jsonlPath string) (Summary, error) {
	log, err := ParseFile(jsonlPath)
	if err != nil {
		return Summary{}, err
	}
	s := Summarize(log)
	dir := strings.TrimSuffix(jsonlPath, FileName)
	if dir == jsonlPath { // stream under a non-canonical name: render beside it
		dir = jsonlPath + "-"
	}
	if err := os.WriteFile(dir+SummaryName, []byte(s.Text()), 0o644); err != nil {
		return s, fmt.Errorf("telemetry: summary: %w", err)
	}
	if err := os.WriteFile(dir+GanttName, []byte(Gantt(log)), 0o644); err != nil {
		return s, fmt.Errorf("telemetry: gantt: %w", err)
	}
	return s, nil
}
