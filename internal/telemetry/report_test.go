package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildStream writes a synthetic two-worker run with the FakeClock:
// cell a (ok, 30ms, worker 0), cell b (ok after one retried panic,
// worker 1), cell c (quarantined, worker 0), one resume skip, one
// sample. Everything below derives from this fixture.
func buildStream(t *testing.T) *bytes.Buffer {
	t.Helper()
	clk := NewFakeClock(t0)
	var buf bytes.Buffer
	r := New(&buf, Options{Clock: clk, Label: "fixture", Jobs: 2, Cells: 4})
	r.Event(Event{Ev: EvResumeSkip, Cell: "skipped", Worker: -1})

	r.Event(Event{Ev: EvCellStart, Cell: "a", Worker: 0, Attempt: 0})
	r.Event(Event{Ev: EvCellStart, Cell: "b", Worker: 1, Attempt: 0})
	clk.Advance(10 * time.Millisecond)
	r.Event(Event{Ev: EvCellError, Cell: "b", Worker: 1, Attempt: 0, Kind: "panic", Error: "injected"})
	r.Event(Event{Ev: EvRetryWait, Cell: "b", Worker: 1, Attempt: 0, WaitMS: 5})
	clk.Advance(5 * time.Millisecond)
	r.Event(Event{Ev: EvCellStart, Cell: "b", Worker: 1, Attempt: 1})
	clk.Advance(15 * time.Millisecond)
	r.Event(Event{Ev: EvCellFinish, Cell: "a", Worker: 0, Status: "ok", Attempts: 1, WallMS: 30, Artifacts: 2})
	r.Event(Event{Ev: EvCellFinish, Cell: "b", Worker: 1, Status: "ok", Attempts: 2, WallMS: 30, Artifacts: 1})
	r.Event(Event{Ev: EvCellStart, Cell: "c", Worker: 0, Attempt: 0})
	clk.Advance(10 * time.Millisecond)
	r.Event(Event{Ev: EvCellError, Cell: "c", Worker: 0, Attempt: 0, Kind: "error", Error: "bad"})
	r.Event(Event{Ev: EvCellFinish, Cell: "c", Worker: 0, Status: "quarantined", Attempts: 1, WallMS: 10, Error: "bad"})
	r.Sample()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestSummarize(t *testing.T) {
	log, err := Parse(buildStream(t))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(log)
	if s.OK != 2 || s.Quarantined != 1 || s.Failed != 0 || s.ResumeSkips != 1 {
		t.Errorf("outcomes: %+v", s)
	}
	if s.Retries != 1 {
		t.Errorf("retries = %d, want 1", s.Retries)
	}
	if len(s.Cells) != 4 {
		t.Errorf("cells = %d, want 4 (a, b, c, skipped)", len(s.Cells))
	}
	if s.WallMS != 40 {
		t.Errorf("wall = %v, want 40 (fixture span)", s.WallMS)
	}
	if s.BusyMS != 70 { // 30 + 30 + 10
		t.Errorf("busy = %v, want 70", s.BusyMS)
	}
	if s.CriticalPathMS != 30 || s.IdealWallMS != 35 {
		t.Errorf("bounds: critical %v ideal %v", s.CriticalPathMS, s.IdealWallMS)
	}
	// 70 busy / (2 workers × 40 wall) = 87.5%
	if s.UtilizationPct != 87.5 {
		t.Errorf("utilization = %v, want 87.5", s.UtilizationPct)
	}
	if s.Samples != 1 || s.PeakGoroutines <= 0 {
		t.Errorf("samples: %d, peak goroutines %d", s.Samples, s.PeakGoroutines)
	}

	slow := s.slowest()
	if len(slow) != len(s.Cells) || slow[0].WallMS != 30 {
		t.Errorf("slowest = %+v", slow)
	}
	hot := s.RetryHotspots()
	if len(hot) != 1 || hot[0].Cell != "b" || hot[0].Attempts != 2 || hot[0].BackoffMS != 5 {
		t.Errorf("hotspots = %+v", hot)
	}

	text := s.Text()
	for _, frag := range []string{"fixture", "2 ok", "1 quarantined", "1 resume-skipped",
		"pool utilization: 88%", "critical path 30 ms", "retry hotspots", "b", "goroutines"} {
		if !strings.Contains(text, frag) {
			t.Errorf("summary text missing %q:\n%s", frag, text)
		}
	}
}

// TestSlowestTruncates checks that the summary lists only slowestShown
// cells, by descending wall time, with names breaking ties.
func TestSlowestTruncates(t *testing.T) {
	// Cells as Summarize leaves them: sorted by name.
	walls := map[string]float64{"a": 10, "b": 40, "c": 20, "d": 40, "e": 5, "f": 30, "g": 20}
	var s Summary
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		s.Cells = append(s.Cells, CellSummary{Cell: name, WallMS: walls[name]})
	}
	if len(s.Cells) <= slowestShown {
		t.Fatalf("fixture has %d cells; need more than slowestShown=%d", len(s.Cells), slowestShown)
	}
	var got []string
	for _, c := range s.slowest() {
		got = append(got, c.Cell)
	}
	want := []string{"b", "d", "f", "c", "g"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("slowest = %v, want %v", got, want)
	}
}

func TestGantt(t *testing.T) {
	log, err := Parse(buildStream(t))
	if err != nil {
		t.Fatal(err)
	}
	svg := Gantt(log)
	for _, frag := range []string{"<svg", "worker 0", "worker 1", "wall-clock ms"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("gantt missing %q", frag)
		}
	}
	// The retried attempt of b and its backoff wait must be visible as
	// their own classes, alongside the terminal statuses.
	for _, class := range []string{"retry", "backoff", "ok", "quarantined"} {
		if !strings.Contains(svg, ">"+class+"<") {
			t.Errorf("gantt legend missing class %q", class)
		}
	}
	if svg != Gantt(log) {
		t.Error("gantt render is not deterministic for a fixed stream")
	}
}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, buildStream(t).Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := WriteArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.OK != 2 {
		t.Errorf("summary: %+v", s)
	}
	sum, err := os.ReadFile(filepath.Join(dir, SummaryName))
	if err != nil || !strings.Contains(string(sum), "pool utilization") {
		t.Errorf("summary artifact: %v\n%s", err, sum)
	}
	gantt, err := os.ReadFile(filepath.Join(dir, GanttName))
	if err != nil || !strings.Contains(string(gantt), "<svg") {
		t.Errorf("gantt artifact: %v", err)
	}
	for _, name := range []string{FileName, SummaryName, GanttName} {
		if !IsTelemetryFile(name) {
			t.Errorf("artifact %q escapes the byte-identity exclusion", name)
		}
	}
}
