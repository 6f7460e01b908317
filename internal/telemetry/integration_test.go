package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fairbench/internal/runner"
	"fairbench/internal/runner/chaos"
)

// The acceptance test for the observability layer: a chaos-injected
// parallel sweep must produce a telemetry stream that accounts for
// every cell — no lost or duplicate cell IDs, retries and quarantines
// visible — while the deterministic output surface (manifest and
// artifacts) stays byte-identical to an unobserved run.

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

func runChaosSweep(t *testing.T, outDir string, jobs int, spec chaos.Spec, rec *Recorder) runner.Result {
	t.Helper()
	inj := chaos.New(spec)
	opts := runner.Options{
		OutDir:      outDir,
		Jobs:        jobs,
		Retries:     2,
		ShouldRetry: chaos.Retryable,
		Fingerprint: "telemetry-chaos-v1",
	}
	if spec.TornWriteProb > 0 || spec.ENOSPCProb > 0 {
		opts.WriteArtifact = inj.ArtifactWriter()
	}
	if rec != nil {
		opts.Observer = rec.RunnerObserver()
	}
	res, err := runner.Run(inj.WrapCells(chaosCells(24)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChaosSweepTelemetryAccountsForEveryCell(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	rec, err := Create(path, Options{Label: "chaos sweep", Fingerprint: "telemetry-chaos-v1", Jobs: 4, Cells: 24})
	if err != nil {
		t.Fatal(err)
	}
	stopSampler := rec.StartSampler()
	res := runChaosSweep(t, dir, 4, chaos.Spec{Seed: 7, PanicProb: 0.3, TornWriteProb: 0.2}, rec)
	stopSampler()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every cell appears exactly once in a terminal state, and every
	// started cell reaches one — no lost, no duplicated IDs.
	terminal := map[string]int{}
	started := map[string]bool{}
	for _, ev := range log.Events {
		switch ev.Ev {
		case EvCellStart:
			started[ev.Cell] = true
		case EvCellFinish, EvResumeSkip, EvCutoff:
			terminal[ev.Cell]++
		}
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("cell-%02d", i)
		if terminal[name] != 1 {
			t.Errorf("cell %s has %d terminal events, want exactly 1", name, terminal[name])
		}
		if !started[name] {
			t.Errorf("cell %s never started", name)
		}
	}
	if len(terminal) != 24 {
		t.Errorf("terminal events for %d distinct cells, want 24", len(terminal))
	}

	// The chaos schedule at this seed injects retryable faults; the
	// stream must show them as retries (attempt > 0 starts preceded by
	// cell-error events) and agree with the runner's own accounting.
	s := Summarize(log)
	if s.Retries == 0 {
		t.Error("chaos schedule produced no visible retries — raise PanicProb or the stream is lossy")
	}
	if s.OK != 24-res.Failed-res.Quarantined || s.Failed != res.Failed || s.Quarantined != res.Quarantined {
		t.Errorf("stream outcomes (ok %d failed %d quarantined %d) disagree with runner result (%d/%d/%d)",
			s.OK, s.Failed, s.Quarantined, 24-res.Failed-res.Quarantined, res.Failed, res.Quarantined)
	}
	errored := 0
	for _, ev := range log.Events {
		if ev.Ev == EvCellError {
			errored++
			if ev.Kind != "panic" && ev.Kind != "error" {
				t.Errorf("unexpected error kind %q: %+v", ev.Kind, ev)
			}
		}
	}
	if errored == 0 {
		t.Error("no cell-error events despite injected faults")
	}
	if s.Samples == 0 {
		t.Error("sampler produced no samples")
	}
	for _, ev := range log.Events {
		if ev.Ev == EvSample && ev.Goroutines <= 0 {
			t.Errorf("sample without goroutine count: %+v", ev)
		}
	}

	// Wall durations land in the journal, never in the manifest.
	_, recs, found, err := runner.LoadJournal(filepath.Join(dir, runner.JournalName))
	if err != nil || !found {
		t.Fatalf("journal: %v found=%v", err, found)
	}
	withWall := 0
	for _, r := range recs {
		if r.WallMS > 0 {
			withWall++
		}
	}
	if withWall == 0 {
		t.Error("journal records carry no wall durations")
	}
	manifestBytes, err := os.ReadFile(filepath.Join(dir, runner.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(manifestBytes, []byte("wall_ms")) {
		t.Error("manifest carries wall_ms — wall time leaked into the determinism surface")
	}

	// The summary and Gantt render from the chaotic stream.
	sum, err := WriteArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK == 0 {
		t.Errorf("rendered summary: %+v", sum)
	}
	if _, err := os.Stat(filepath.Join(dir, GanttName)); err != nil {
		t.Errorf("gantt artifact: %v", err)
	}
}

// TestTelemetryNeverChangesOutputBytes pins the determinism contract:
// the artifact directory (journal and telemetry files excluded) is
// byte-identical with telemetry attached vs detached and at jobs=1 vs
// jobs=8, under the same chaos schedule.
func TestTelemetryNeverChangesOutputBytes(t *testing.T) {
	// Execution faults only: panic decisions are keyed by (cell,
	// attempt), so both directories see the identical chaos schedule.
	// (IO-fault decisions are keyed by absolute artifact path and would
	// legitimately diverge across temp dirs.)
	spec := chaos.Spec{Seed: 11, PanicProb: 0.3}
	baseline := t.TempDir()
	runChaosSweep(t, baseline, 1, spec, nil)

	observed := t.TempDir()
	rec, err := Create(filepath.Join(observed, FileName), Options{Jobs: 8, Cells: 24})
	if err != nil {
		t.Fatal(err)
	}
	runChaosSweep(t, observed, 8, spec, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteArtifacts(filepath.Join(observed, FileName)); err != nil {
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
	for _, name := range []string{FileName, SummaryName, GanttName} {
		if _, err := os.Stat(filepath.Join(observed, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}
