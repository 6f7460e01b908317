package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func okExperiment(name string, body string) Experiment {
	return Experiment{
		Name: name,
		Run: func(int) ([]Artifact, error) {
			return []Artifact{{Name: name + ".txt", Body: []byte(body)}}, nil
		},
	}
}

func TestSweepContinuesPastPanic(t *testing.T) {
	dir := t.TempDir()
	exps := []Experiment{
		okExperiment("alpha", "alpha body"),
		{Name: "boom", Run: func(int) ([]Artifact, error) { panic("injected panic") }},
		okExperiment("omega", "omega body"),
	}
	res, err := Run(exps, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 3 || res.Failed != 1 {
		t.Fatalf("ran/failed = %d/%d, want 3/1", res.Ran, res.Failed)
	}
	// The panicking experiment is a failure record, not an abort: the
	// later experiment still produced its artifact.
	for _, name := range []string{"alpha.txt", "omega.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing after mid-sweep panic: %v", name, err)
		}
	}
	rec, ok := lookup(res.Manifest, "boom")
	if !ok || rec.Status != StatusFailed {
		t.Fatalf("boom record = %+v, want failed", rec)
	}
	if !strings.Contains(rec.Error, "injected panic") {
		t.Errorf("failure record should carry the panic value: %q", rec.Error)
	}
	if res.Err() == nil {
		t.Error("Result.Err should report the failure")
	}
	// The failure is surfaced in the on-disk manifest too.
	m, err := LoadManifest(res.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, rec := range m.Records {
		if rec.Status == StatusFailed {
			failed = append(failed, rec.Experiment)
		}
	}
	if len(failed) != 1 || failed[0] != "boom" {
		t.Errorf("manifest failed records = %v, want [boom]", failed)
	}
}

func TestDeadlineExceededRecordsFailure(t *testing.T) {
	dir := t.TempDir()
	exps := []Experiment{
		{Name: "stuck", Run: func(int) ([]Artifact, error) {
			time.Sleep(5 * time.Second)
			return nil, nil
		}},
		okExperiment("after", "still runs"),
	}
	start := time.Now()
	res, err := Run(exps, Options{OutDir: dir, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline did not bound the experiment (took %v)", elapsed)
	}
	rec, _ := lookup(res.Manifest, "stuck")
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "deadline") {
		t.Errorf("stuck record = %+v, want deadline failure", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "after.txt")); err != nil {
		t.Errorf("experiment after the deadline overrun did not run: %v", err)
	}
}

func TestRetryWithNextAttempt(t *testing.T) {
	dir := t.TempDir()
	transient := errors.New("non-finite measurement")
	var attempts []int
	exps := []Experiment{{
		Name: "flaky",
		Run: func(attempt int) ([]Artifact, error) {
			attempts = append(attempts, attempt)
			if attempt < 2 {
				return nil, fmt.Errorf("trial poisoned: %w", transient)
			}
			return []Artifact{{Name: "flaky.txt", Body: []byte("recovered")}}, nil
		},
	}}
	res, err := Run(exps, Options{
		OutDir:      dir,
		Retries:     3,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 3 || attempts[0] != 0 || attempts[2] != 2 {
		t.Errorf("attempts = %v, want [0 1 2]", attempts)
	}
	rec, _ := lookup(res.Manifest, "flaky")
	if rec.Status != StatusOK || rec.Attempts != 3 {
		t.Errorf("record = %+v, want ok after 3 attempts", rec)
	}
	// Retries exhausted on a retryable error: the cell is quarantined —
	// the sweep completes and reports it instead of aborting.
	exps[0].Run = func(int) ([]Artifact, error) { return nil, transient }
	res, err = Run(exps, Options{OutDir: t.TempDir(), Retries: 1,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) }})
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := lookup(res.Manifest, "flaky"); rec.Status != StatusQuarantined || rec.Attempts != 2 {
		t.Errorf("exhausted record = %+v, want quarantined after 2 attempts", rec)
	}
	if res.Quarantined != 1 || len(res.QuarantinedExperiments) != 1 {
		t.Errorf("result = %+v, want 1 quarantined", res)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "quarantined") {
		t.Errorf("Result.Err should report the quarantine: %v", res.Err())
	}
}

func TestResumeSkipsCompletedRegeneratesMissing(t *testing.T) {
	dir := t.TempDir()
	runs := map[string]int{}
	counted := func(name string) Experiment {
		return Experiment{Name: name, Run: func(int) ([]Artifact, error) {
			runs[name]++
			return []Artifact{{Name: name + ".txt", Body: []byte(name + " body")}}, nil
		}}
	}
	exps := []Experiment{counted("one"), counted("two"), counted("three")}
	opts := Options{OutDir: dir, Fingerprint: "fp-a"}
	if _, err := Run(exps, opts); err != nil {
		t.Fatal(err)
	}

	// Delete one artifact: resume must regenerate exactly that one.
	if err := os.Remove(filepath.Join(dir, "two.txt")); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	res, err := Run(exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs["one"] != 1 || runs["three"] != 1 {
		t.Errorf("intact experiments re-ran: %v", runs)
	}
	if runs["two"] != 2 {
		t.Errorf("deleted artifact's experiment did not re-run: %v", runs)
	}
	if res.Skipped != 2 || res.Ran != 1 {
		t.Errorf("skipped/ran = %d/%d, want 2/1", res.Skipped, res.Ran)
	}
	if _, err := os.Stat(filepath.Join(dir, "two.txt")); err != nil {
		t.Errorf("artifact not regenerated: %v", err)
	}

	// A truncated artifact (size mismatch) also counts as incomplete.
	if err := os.WriteFile(filepath.Join(dir, "three.txt"), []byte("tr"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(exps, opts); err != nil {
		t.Fatal(err)
	}
	if runs["three"] != 2 {
		t.Errorf("truncated artifact's experiment did not re-run: %v", runs)
	}

	// Fingerprint mismatch refuses to resume.
	opts.Fingerprint = "fp-b"
	if _, err := Run(exps, opts); !errors.Is(err, ErrFingerprint) {
		t.Errorf("fingerprint mismatch err = %v, want ErrFingerprint", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.svg")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("version 2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version 2" {
		t.Errorf("content = %q", got)
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Logf("entry: %s", e.Name())
		}
		t.Errorf("directory has %d entries, want 1 (temp files must not survive)", len(entries))
	}
	// Writing into a missing directory fails without creating debris.
	if err := WriteFileAtomic(filepath.Join(dir, "no-such", "x.txt"), []byte("x"), 0o644); err == nil {
		t.Error("write into missing directory should fail")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := Manifest{Version: 1, Fingerprint: "fp"}
	m.Upsert(Record{Experiment: "a", Status: StatusOK, Attempts: 1,
		Artifacts: []ArtifactRecord{{Name: "a.txt", Bytes: 3}}})
	m.Upsert(Record{Experiment: "b", Status: StatusFailed, Error: "boom", Attempts: 2})
	// Upsert replaces in place.
	m.Upsert(Record{Experiment: "b", Status: StatusOK, Attempts: 3,
		Artifacts: []ArtifactRecord{{Name: "b.txt", Bytes: 5}}})
	if len(m.Records) != 2 {
		t.Fatalf("records = %d, want 2 (upsert must replace)", len(m.Records))
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "fp" || len(got.Records) != 2 {
		t.Errorf("round-trip = %+v", got)
	}
	// Completed: requires status ok and matching files.
	rec, _ := lookup(got, "a")
	if completedRecord(rec, dir) {
		t.Error("a should be incomplete (artifact file missing)")
	}
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !completedRecord(rec, dir) {
		t.Error("a should be complete with its artifact on disk")
	}
	// Missing manifest loads empty.
	empty, err := LoadManifest(filepath.Join(dir, "nope.json"))
	if err != nil || len(empty.Records) != 0 {
		t.Errorf("missing manifest: %v, %+v", err, empty)
	}
}

// lookup returns the manifest record for the named experiment.
func lookup(m Manifest, experiment string) (Record, bool) {
	for _, r := range m.Records {
		if r.Experiment == experiment {
			return r, true
		}
	}
	return Record{}, false
}
