package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairbench"
	"fairbench/internal/telemetry"
)

// quickSweep is one serial quick sweep shared by every test that needs
// a full artifact directory: generating it is most of this package's
// test time. Tests read it and never write into it.
var quickSweep struct {
	once sync.Once
	dir  string
	out  string // run's summary output
	err  error
}

// serialQuickSweep returns the directory and summary output of a
// -quick -jobs 1 sweep, generated on first use.
func serialQuickSweep(t *testing.T) (dir, out string) {
	t.Helper()
	quickSweep.once.Do(func() {
		if quickSweep.dir, quickSweep.err = os.MkdirTemp("", "fairfigs-quick-"); quickSweep.err != nil {
			return
		}
		var buf bytes.Buffer
		quickSweep.err = run([]string{"-out", quickSweep.dir, "-quick", "-jobs", "1"}, &buf)
		quickSweep.out = buf.String()
	})
	if quickSweep.err != nil {
		t.Fatal(quickSweep.err)
	}
	return quickSweep.dir, quickSweep.out
}

func TestMain(m *testing.M) {
	code := m.Run()
	if quickSweep.dir != "" {
		os.RemoveAll(quickSweep.dir)
	}
	os.Exit(code)
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			t.Fatalf("fixture entry %s is not a regular file", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunQuickGeneratesAllArtifactsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration is slow")
	}
	// The resume steps below delete and rewrite artifacts, so they run
	// on a private copy of the shared sweep.
	fixture, summary := serialQuickSweep(t)
	dir := t.TempDir()
	copyDir(t, fixture, dir)
	want := []string{
		"table1.txt", "table1.md", "table1.csv", "scorecard.txt",
		"figure1a.svg", "figure1b.svg", "figure1.txt",
		"figure2.svg", "figure2.csv", "figure2.txt", "figure3.svg",
		"example-smartnic.txt", "example-smartnic-robust.md",
		"example-switch.txt", "example-latency.txt",
		"pitfalls.txt", "rfc2544.txt", "rfc2544-loss.csv",
		"rfc2544-latency.csv", "rfc2544-loss.svg", "rfc2544-latency.svg",
		"burst.txt", "burst-latency.svg", "ablation-stateful.txt",
		"operating-curves.txt", "operating-curves.csv",
		"fault-sweep.txt", "fault-sweep.csv", "sensitivity.txt",
		"state-pressure.txt", "state-pressure.csv",
		"state-pressure-curves.csv", "state-pressure-flipmap.csv",
		"frontier.txt", "frontier.svg", "pricing-release.json",
		"manifest.json",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	if !strings.Contains(summary, "artifacts in") {
		t.Errorf("summary line missing:\n%s", summary)
	}
	robust, err := os.ReadFile(filepath.Join(dir, "example-smartnic-robust.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"confidence", "resamples", "bootstrap CIs"} {
		if !strings.Contains(string(robust), frag) {
			t.Errorf("robust artifact missing %q", frag)
		}
	}

	// Resume smoke: delete one artifact, re-run with -resume, and only
	// the owning experiment regenerates — every other artifact keeps
	// its mtime.
	mtimes := map[string]time.Time{}
	for _, name := range want {
		if info, err := os.Stat(filepath.Join(dir, name)); err == nil {
			mtimes[name] = info.ModTime()
		}
	}
	if err := os.Remove(filepath.Join(dir, "pitfalls.txt")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-out", dir, "-quick", "-resume"}, &out); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, "pitfalls.txt")); err != nil || info.Size() == 0 {
		t.Errorf("deleted artifact not regenerated: %v", err)
	}
	for _, name := range want {
		if name == "pitfalls.txt" || name == "manifest.json" {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("artifact %s lost on resume: %v", name, err)
			continue
		}
		if !info.ModTime().Equal(mtimes[name]) {
			t.Errorf("artifact %s was rewritten on resume", name)
		}
	}
	if !strings.Contains(out.String(), "skip") {
		t.Errorf("resume run should report skipped experiments:\n%s", out.String())
	}

	// Resuming under different options refuses to mix artifacts.
	if err := run([]string{"-out", dir, "-quick", "-resume", "-seed", "2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch on resume: err = %v", err)
	}
}

// TestParallelRunMatchesSerialBytes is the command-level acceptance
// check: the same quick sweep at -jobs=1 (bare) and -jobs=8 (with
// telemetry rendered and pprof capture attached) produces
// byte-identical artifact directories. The journal and the telemetry
// files are excluded — both record wall-clock execution history and
// are documented as not being determinism surfaces. Running the
// parallel leg fully observed is the meta-test that attaching the
// observability layer cannot change a single output byte.
func TestParallelRunMatchesSerialBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("artifact regeneration is slow")
	}
	serialDir, _ := serialQuickSweep(t)
	parallelDir, pprofDir := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-out", parallelDir, "-quick", "-jobs", "8",
		"-telemetry", "-pprof-dir", pprofDir}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(serialDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("suspiciously few artifacts: %d", len(entries))
	}
	for _, e := range entries {
		if e.Name() == "journal.jsonl" || telemetry.IsTelemetryFile(e.Name()) {
			continue
		}
		want, err := os.ReadFile(filepath.Join(serialDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(parallelDir, e.Name()))
		if err != nil {
			t.Errorf("artifact %s missing from parallel run: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between -jobs=1 and -jobs=8", e.Name())
		}
	}

	// The observed run produced its telemetry artifacts and profiles
	// beside (not inside) the deterministic surface.
	for _, name := range []string{telemetry.SummaryName, telemetry.GanttName} {
		info, err := os.Stat(filepath.Join(parallelDir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("telemetry artifact %s: %v", name, err)
		}
	}
	for _, name := range []string{telemetry.CPUProfileName, telemetry.HeapProfileName} {
		info, err := os.Stat(filepath.Join(pprofDir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("profile %s: %v", name, err)
		}
	}
	got := out.String()
	for _, frag := range []string{"slowest cells:", "pool utilization"} {
		if !strings.Contains(got, frag) {
			t.Errorf("observed-run summary missing %q:\n%s", frag, got)
		}
	}
}

// TestFingerprintExcludesJobs is the regression guard on the resume
// contract: the run fingerprint must not encode -jobs (or any other
// knob that cannot change the bytes), so a serial run can be resumed
// in parallel and vice versa.
func TestFingerprintExcludesJobs(t *testing.T) {
	opts := fairbench.ExpOptions{TrialSeconds: 0.02, Seed: 1, Trials: 3}
	fp := fingerprintFor(opts, false)
	if strings.Contains(fp, "jobs") {
		t.Fatalf("fingerprint %q encodes jobs; serial and parallel runs could not share a resume", fp)
	}
	// The knobs that DO change bytes must all be present.
	for _, frag := range []string{"trial=0.02", "seed=1", "trials=3", "quick=false"} {
		if !strings.Contains(fp, frag) {
			t.Errorf("fingerprint %q missing %q", fp, frag)
		}
	}
	// And it must react to each of them.
	for _, changed := range []string{
		fingerprintFor(fairbench.ExpOptions{TrialSeconds: 0.01, Seed: 1, Trials: 3}, false),
		fingerprintFor(fairbench.ExpOptions{TrialSeconds: 0.02, Seed: 2, Trials: 3}, false),
		fingerprintFor(fairbench.ExpOptions{TrialSeconds: 0.02, Seed: 1, Trials: 4}, false),
		fingerprintFor(opts, true),
	} {
		if changed == fp {
			t.Errorf("fingerprint did not change with a byte-affecting option: %q", fp)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp-timeout", "-1s"}, &out); err == nil {
		t.Error("negative -exp-timeout should fail")
	}
	if err := run([]string{"-run-timeout", "-1s"}, &out); err == nil {
		t.Error("negative -run-timeout should fail")
	}
	if err := run([]string{"-trials", "-2"}, &out); err == nil {
		t.Error("negative -trials should fail")
	}
	if err := run([]string{"-retries", "-1"}, &out); err == nil {
		t.Error("negative -retries should fail")
	}
}

func TestRunBadOutputDir(t *testing.T) {
	var out bytes.Buffer
	// A file path where a directory is required: fails before any
	// experiment runs.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", f, "-quick"}, &out); err == nil {
		t.Error("output path collision should fail")
	}
}

// TestSlowestCellsOrdersAndTruncates checks the stdout ranking: the
// slowestCells longest cells, names breaking ties, and nothing for a
// run in which no cell ran.
func TestSlowestCellsOrdersAndTruncates(t *testing.T) {
	sum := telemetry.Summary{Cells: []telemetry.CellSummary{
		{Cell: "a", WallMS: 9}, {Cell: "b", WallMS: 5}, {Cell: "c", WallMS: 5}, {Cell: "d", WallMS: 1},
	}}
	if got, want := slowestLine(sum), "slowest cells: a 9 ms, b 5 ms, c 5 ms"; got != want {
		t.Errorf("slowestLine = %q, want %q", got, want)
	}
	if got := slowestLine(telemetry.Summary{}); got != "" {
		t.Errorf("slowestLine of an empty run = %q, want none", got)
	}
}
