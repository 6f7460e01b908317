package telemetry

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fairbench/internal/runner"
)

// fixture is a synthetic two-worker run: cell a (ok, 30 ms, worker 0),
// cell b (ok after one retried attempt and a 5 ms backoff, worker 1),
// cell c (quarantined, worker 0), one cell kept by Resume from an
// earlier run, one cell the run deadline cut off and one pool shrink.
// Everything below derives from it.
func fixture() Summary {
	recs := []runner.Record{
		{Experiment: "skipped", Status: runner.StatusOK, Attempts: 1, WallMS: 12},
		{Experiment: "a", Status: runner.StatusOK, Attempts: 1, WallMS: 30,
			Timing: &runner.Timing{Worker: 0, Tries: []runner.Try{{StartMS: 0, WallMS: 30}}}},
		{Experiment: "b", Status: runner.StatusOK, Attempts: 2, WallMS: 30,
			Timing: &runner.Timing{Worker: 1, Tries: []runner.Try{{StartMS: 0, WallMS: 10}, {StartMS: 15, WallMS: 15}}}},
		{Experiment: "c", Status: runner.StatusQuarantined, Attempts: 1, WallMS: 10, Error: "bad\nstack",
			Timing: &runner.Timing{Worker: 0, Tries: []runner.Try{{StartMS: 30, WallMS: 10}}}},
	}
	res := runner.Result{Workers: 2, UnfinishedExperiments: []string{"late"}, WorkersShrunk: 1}
	return summarize(recs, res)
}

func TestSummarize(t *testing.T) {
	s := fixture()
	if s.OK != 2 || s.Quarantined != 1 || s.Failed != 0 || s.ResumeSkips != 1 || s.Cutoffs != 1 || s.PoolShrinks != 1 {
		t.Errorf("outcomes: %+v", s)
	}
	if s.Retries != 1 {
		t.Errorf("retries = %d, want 1", s.Retries)
	}
	var names []string
	for _, c := range s.Cells {
		names = append(names, c.Cell)
	}
	if got := strings.Join(names, ","); got != "a,b,c,late,skipped" {
		t.Errorf("cells = %s, want every cell once, by name", got)
	}
	if s.WallMS != 40 {
		t.Errorf("wall = %v, want 40 (end of c)", s.WallMS)
	}
	if s.BusyMS != 70 { // 30 + 30 + 10; the kept cell's 12 ms belong to an earlier run
		t.Errorf("busy = %v, want 70", s.BusyMS)
	}
	if s.CriticalPathMS != 30 || s.IdealWallMS != 35 {
		t.Errorf("bounds: critical %v ideal %v", s.CriticalPathMS, s.IdealWallMS)
	}
	// 70 busy / (2 workers × 40 wall) = 87.5%
	if s.UtilizationPct != 87.5 {
		t.Errorf("utilization = %v, want 87.5", s.UtilizationPct)
	}

	slow := s.Slowest(slowestShown)
	if len(slow) != 3 || slow[0].Cell != "a" || slow[1].Cell != "b" || slow[2].Cell != "c" {
		t.Errorf("slowest = %+v, want the three cells this run executed", slow)
	}
	hot := s.RetryHotspots()
	if len(hot) != 1 || hot[0].Cell != "b" || hot[0].Attempts != 2 || hot[0].BackoffMS != 5 {
		t.Errorf("hotspots = %+v", hot)
	}
	if s.Cells[2].Error != "bad" {
		t.Errorf("c's error = %q, want its first line", s.Cells[2].Error)
	}

	text := s.Text()
	for _, frag := range []string{"5 cells at 2 workers", "2 ok", "1 quarantined", "1 resume-skipped",
		"1 cut off", "pool shrank 1", "pool utilization: 88%", "critical path 30 ms", "retry hotspots",
		"b                                2 attempts, 5 ms in backoff", "runtime at end"} {
		if !strings.Contains(text, frag) {
			t.Errorf("summary text missing %q:\n%s", frag, text)
		}
	}
}

// TestSlowestTruncates checks that Slowest lists only n cells, by
// descending wall time, with names breaking ties.
func TestSlowestTruncates(t *testing.T) {
	// Cells as summarize leaves them: sorted by name.
	walls := map[string]float64{"a": 10, "b": 40, "c": 20, "d": 40, "e": 5, "f": 30, "g": 20}
	var s Summary
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		s.Cells = append(s.Cells, CellSummary{Cell: name, WallMS: walls[name]})
	}
	if len(s.Cells) <= slowestShown {
		t.Fatalf("fixture has %d cells; need more than slowestShown=%d", len(s.Cells), slowestShown)
	}
	var got []string
	for _, c := range s.Slowest(slowestShown) {
		got = append(got, c.Cell)
	}
	want := []string{"b", "d", "f", "c", "g"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("slowest = %v, want %v", got, want)
	}
}

func TestGantt(t *testing.T) {
	s := fixture()
	svg := s.Gantt()
	for _, frag := range []string{"<svg", "worker 0", "worker 1", "wall-clock ms"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("gantt missing %q", frag)
		}
	}
	// One lane per worker: the kept and the cut-off cell never ran on
	// a worker this run, so they get neither a lane nor a span.
	if lanes := strings.Count(svg, `stroke="#ddd"`); lanes != 2 {
		t.Errorf("gantt has %d lanes, want 2", lanes)
	}
	// a, c, and b's retried attempt, backoff and final attempt.
	if spans := strings.Count(svg, "<title>"); spans != 5 {
		t.Errorf("gantt has %d spans, want 5", spans)
	}
	// The retried attempt of b and its backoff wait must be visible as
	// their own classes, alongside the terminal statuses.
	for _, class := range []string{"retry", "backoff", "ok", "quarantined"} {
		if !strings.Contains(svg, ">"+class+"<") {
			t.Errorf("gantt legend missing class %q", class)
		}
	}
	if svg != s.Gantt() {
		t.Error("gantt render is not deterministic for fixed records")
	}
}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := fixture().WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(filepath.Join(dir, SummaryName))
	if err != nil || !strings.Contains(string(sum), "pool utilization") {
		t.Errorf("summary artifact: %v\n%s", err, sum)
	}
	gantt, err := os.ReadFile(filepath.Join(dir, GanttName))
	if err != nil || !strings.Contains(string(gantt), "<svg") {
		t.Errorf("gantt artifact: %v", err)
	}
	for _, name := range []string{SummaryName, GanttName} {
		if !IsTelemetryFile(name) {
			t.Errorf("artifact %q escapes the byte-identity exclusion", name)
		}
	}
}

func TestSampleRecordsRuntime(t *testing.T) {
	runtime.GC()
	heap, cycles, pauseMS := runtimeSample()
	if heap == 0 || cycles == 0 || pauseMS < 0 {
		t.Errorf("runtime sample: heap %d B, %d GC cycles, %v ms GC pause", heap, cycles, pauseMS)
	}
}
