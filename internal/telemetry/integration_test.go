package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairbench/internal/runner"
	"fairbench/internal/runner/chaos"
)

// The acceptance test for the observability layer: a chaos-injected
// parallel sweep must produce a summary that accounts for every cell
// exactly once — retries, quarantines, cut-offs, resume-skips and pool
// shrinks visible — while the deterministic output surface (manifest
// and artifacts) stays byte-identical to a run nobody summarized.

func chaosCells(n int) []runner.Experiment {
	cells := make([]runner.Experiment, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cell-%02d", i)
		cells[i] = runner.Experiment{
			Name: name,
			Run: func(attempt int) ([]runner.Artifact, error) {
				return []runner.Artifact{{Name: name + ".txt", Body: []byte(name + " content\n")}}, nil
			},
		}
	}
	return cells
}

func runChaosSweep(t *testing.T, cells []runner.Experiment, opts runner.Options, spec chaos.Spec) runner.Result {
	t.Helper()
	inj := chaos.New(spec)
	opts.Retries = 2
	opts.ShouldRetry = chaos.Retryable
	opts.Fingerprint = "telemetry-chaos-v1"
	if spec.TornWriteProb > 0 || spec.ENOSPCProb > 0 {
		opts.WriteArtifact = inj.ArtifactWriter()
	}
	res, err := runner.Run(inj.WrapCells(cells), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChaosSweepTelemetryAccountsForEveryCell(t *testing.T) {
	dir := t.TempDir()
	cells := chaosCells(24)
	// Cells 12-17 panic on every attempt: each is retried, then
	// quarantined, and the first three panicking cells in a row retire
	// one of the two workers. Cell 18 outlasts the run deadline, so the
	// cells queued behind it are cut off.
	for i := 12; i <= 17; i++ {
		name := cells[i].Name
		cells[i].Run = func(int) ([]runner.Artifact, error) {
			panic(fmt.Sprintf("%v: %s always panics", chaos.ErrInjected, name))
		}
	}
	slow := cells[18].Run
	cells[18].Run = func(attempt int) ([]runner.Artifact, error) {
		time.Sleep(400 * time.Millisecond)
		return slow(attempt)
	}

	// An earlier run completed cells 0-11; this one resumes them.
	runChaosSweep(t, cells[:12], runner.Options{OutDir: dir, Jobs: 2}, chaos.Spec{Seed: 7})
	res := runChaosSweep(t, cells, runner.Options{OutDir: dir, Jobs: 2, Resume: true, RunTimeout: 200 * time.Millisecond},
		chaos.Spec{Seed: 7, TornWriteProb: 0.2})

	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, c := range s.Cells {
		seen[c.Cell]++
	}
	for _, c := range cells {
		if seen[c.Name] != 1 {
			t.Errorf("cell %s appears %d times in the summary, want exactly 1", c.Name, seen[c.Name])
		}
	}
	if len(s.Cells) != len(cells) {
		t.Errorf("summary has %d cells, want %d", len(s.Cells), len(cells))
	}
	if s.OK+s.Failed+s.Quarantined+s.ResumeSkips+s.Cutoffs != len(cells) {
		t.Errorf("outcomes do not add up to %d cells: %+v", len(cells), s)
	}
	// The summary agrees with the runner's own accounting.
	if s.ResumeSkips != 12 || s.ResumeSkips != res.Skipped {
		t.Errorf("resume-skips = %d, runner skipped %d, want 12", s.ResumeSkips, res.Skipped)
	}
	if s.Quarantined != 6 || s.Quarantined != res.Quarantined {
		t.Errorf("quarantined = %d, runner quarantined %d, want 6", s.Quarantined, res.Quarantined)
	}
	if s.Cutoffs == 0 || s.Cutoffs != res.Unfinished {
		t.Errorf("cutoffs = %d, runner left %d unfinished", s.Cutoffs, res.Unfinished)
	}
	if s.OK != res.Ran-res.Failed-res.Quarantined || s.Failed != res.Failed {
		t.Errorf("ok %d failed %d, runner ran %d with %d failed", s.OK, s.Failed, res.Ran, res.Failed)
	}
	if s.Workers != 2 {
		t.Errorf("summary pool width = %d, want 2", s.Workers)
	}
	if s.PoolShrinks != 1 || s.PoolShrinks != res.WorkersShrunk {
		t.Errorf("pool shrinks = %d, runner shrank %d, want 1", s.PoolShrinks, res.WorkersShrunk)
	}
	if s.Retries < 12 {
		t.Errorf("retries = %d, want at least 2 per quarantined cell", s.Retries)
	}
	for _, c := range s.Cells {
		ran := c.Status != "resume-skip" && c.Status != "cutoff"
		if ran != (len(c.Tries) == c.Attempts && c.Attempts > 0 && c.Worker >= 0) {
			t.Errorf("cell %s (%s): worker %d, %d tries for %d attempts", c.Cell, c.Status, c.Worker, len(c.Tries), c.Attempts)
		}
		if c.Status == "quarantined" && !strings.Contains(c.Error, "always panics") {
			t.Errorf("cell %s: final error %q", c.Cell, c.Error)
		}
	}

	// The summary and Gantt render from the chaotic run, with one lane
	// per worker that ran a cell and none for the cells that did not run.
	if err := s.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	gantt, err := os.ReadFile(filepath.Join(dir, GanttName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(gantt, []byte("worker 0")) || !bytes.Contains(gantt, []byte("worker 1")) ||
		bytes.Count(gantt, []byte(`stroke="#ddd"`)) != 2 {
		t.Errorf("gantt lanes are not the two pool workers")
	}
}

// TestTelemetryNeverChangesOutputBytes pins the determinism contract:
// the artifact directory (journal and telemetry files excluded) is
// byte-identical with the telemetry rendered and without, and at
// jobs=1 vs jobs=8, under the same chaos schedule.
func TestTelemetryNeverChangesOutputBytes(t *testing.T) {
	// Execution faults only: panic decisions are keyed by (cell,
	// attempt), so both directories see the identical chaos schedule.
	// (IO-fault decisions are keyed by absolute artifact path and would
	// legitimately diverge across temp dirs.)
	spec := chaos.Spec{Seed: 11, PanicProb: 0.3}
	baseline := t.TempDir()
	runChaosSweep(t, chaosCells(24), runner.Options{OutDir: baseline, Jobs: 1}, spec)

	observed := t.TempDir()
	res := runChaosSweep(t, chaosCells(24), runner.Options{OutDir: observed, Jobs: 8}, spec)
	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArtifacts(observed); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == runner.JournalName || IsTelemetryFile(e.Name()) {
			continue
		}
		want, err := os.ReadFile(filepath.Join(baseline, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(observed, e.Name()))
		if err != nil {
			t.Errorf("%s missing from observed run: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between unobserved jobs=1 and observed jobs=8 runs", e.Name())
		}
	}
	// And the observed run produced the telemetry files next to the
	// untouched artifacts.
	for _, name := range []string{SummaryName, GanttName} {
		if _, err := os.Stat(filepath.Join(observed, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}
