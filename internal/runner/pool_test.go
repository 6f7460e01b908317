package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// deterministicCells builds n cells whose artifacts are pure functions
// of the cell name, so any two complete sweeps over them must be
// byte-identical.
func deterministicCells(n int) []Experiment {
	out := make([]Experiment, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cell-%02d", i)
		out[i] = Experiment{
			Name: name,
			Run: func(int) ([]Artifact, error) {
				body := fmt.Sprintf("artifact of %s\npayload %d\n", name, len(name)*7)
				return []Artifact{
					{Name: name + ".txt", Body: []byte(body)},
					{Name: name + ".csv", Body: []byte("k,v\n" + name + ",1\n")},
				}, nil
			},
		}
	}
	return out
}

// readDir returns path->content for every file under dir, excluding
// the journal (which records completion order and is documented as not
// being a determinism surface).
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == JournalName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// assertSameDir fails unless both directories hold byte-identical
// files (journal excluded).
func assertSameDir(t *testing.T, want, got map[string]string, label string) {
	t.Helper()
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: %s missing", label, name)
			continue
		}
		if g != want[name] {
			t.Errorf("%s: %s differs:\nwant %q\ngot  %q", label, name, want[name], g)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected extra file %s", label, name)
		}
	}
}

// TestParallelMergeIsByteIdenticalToSerial is the acceptance-criterion
// test: the same sweep at -jobs=1 and -jobs=8 produces byte-identical
// merged artifacts, including the manifest (merged in cell order, not
// completion order).
func TestParallelMergeIsByteIdenticalToSerial(t *testing.T) {
	cells := deterministicCells(30)
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	if _, err := Run(cells, Options{OutDir: serialDir, Jobs: 1, Fingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cells, Options{OutDir: parallelDir, Jobs: 8, Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 30 || res.Failed != 0 {
		t.Fatalf("parallel run = %+v", res)
	}
	assertSameDir(t, readDir(t, serialDir), readDir(t, parallelDir), "jobs=8 vs jobs=1")
}

// TestParallelActuallyOverlaps proves the pool runs cells concurrently
// (the speedup satellite depends on it): 8 cells that each sleep 40ms
// must finish far faster than serially on 8 workers.
func TestParallelActuallyOverlaps(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	cells := make([]Experiment, 8)
	for i := range cells {
		name := fmt.Sprintf("sleepy-%d", i)
		cells[i] = Experiment{Name: name, Run: func(int) ([]Artifact, error) {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(40 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return []Artifact{{Name: name + ".txt", Body: []byte(name)}}, nil
		}}
	}
	start := time.Now()
	if _, err := Run(cells, Options{OutDir: t.TempDir(), Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("8 x 40ms cells on 8 workers took %v — pool is not parallel", elapsed)
	}
	if maxInFlight < 2 {
		t.Errorf("max in-flight cells = %d, want >= 2", maxInFlight)
	}
}

// TestNoCellDispatchedTwiceAndSeedsNeverAlias: within one run, every
// (cell, attempt) pair is dispatched at most once, and seeds derived
// from (cell, attempt) the way the drivers derive them are unique
// across the whole sweep — the no-reused-trial-seeds invariant.
func TestNoCellDispatchedTwiceAndSeedsNeverAlias(t *testing.T) {
	transient := errors.New("transient")
	var mu sync.Mutex
	dispatched := map[string]int{}
	seeds := map[uint64]string{}
	var cells []Experiment
	for i := 0; i < 12; i++ {
		i := i
		name := fmt.Sprintf("cell-%02d", i)
		cells = append(cells, Experiment{Name: name, Run: func(attempt int) ([]Artifact, error) {
			key := fmt.Sprintf("%s/%d", name, attempt)
			// SplitMix-style (cell, attempt) seed derivation, as the
			// fairfigs driver does with TrialSeed.
			z := uint64(i)<<32 + uint64(attempt) + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			seed := z ^ (z >> 27)
			mu.Lock()
			dispatched[key]++
			if prev, dup := seeds[seed]; dup {
				mu.Unlock()
				t.Errorf("seed %d reused by %s and %s", seed, prev, key)
				return nil, nil
			}
			seeds[seed] = key
			mu.Unlock()
			if attempt < 2 && i%3 == 0 {
				return nil, transient
			}
			return []Artifact{{Name: name + ".txt", Body: []byte(name)}}, nil
		}})
	}
	res, err := Run(cells, Options{
		OutDir: t.TempDir(), Jobs: 4, Retries: 3,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Quarantined != 0 {
		t.Fatalf("sweep did not converge: %+v", res)
	}
	for key, n := range dispatched {
		if n != 1 {
			t.Errorf("(cell, attempt) %s dispatched %d times", key, n)
		}
	}
	if len(res.Manifest.Records) != len(cells) {
		t.Errorf("manifest has %d records, want %d (no lost or duplicated cells)",
			len(res.Manifest.Records), len(cells))
	}
}

// TestRunDeadlineLeavesCellsResumable: a whole-run deadline stops
// dispatch; undispatched cells are reported unfinished, and a resumed
// run completes them to the same bytes as a clean run.
func TestRunDeadlineLeavesCellsResumable(t *testing.T) {
	slowCells := func() []Experiment {
		cells := deterministicCells(12)
		for i := range cells {
			inner := cells[i].Run
			cells[i].Run = func(attempt int) ([]Artifact, error) {
				time.Sleep(30 * time.Millisecond)
				return inner(attempt)
			}
		}
		return cells
	}

	cleanDir := t.TempDir()
	if _, err := Run(slowCells(), Options{OutDir: cleanDir, Fingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	res, err := Run(slowCells(), Options{
		OutDir: dir, Jobs: 2, RunTimeout: 70 * time.Millisecond, Fingerprint: "fp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Fatalf("run deadline did not cut any cells off: %+v", res)
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "unfinished") {
		t.Errorf("Result.Err should report unfinished cells: %v", res.Err())
	}

	res, err = Run(slowCells(), Options{OutDir: dir, Resume: true, Jobs: 4, Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() != nil {
		t.Fatalf("resume did not converge: %v", res.Err())
	}
	if res.Skipped == 0 {
		t.Errorf("resume re-ran everything; expected completed cells to be skipped: %+v", res)
	}
	assertSameDir(t, readDir(t, cleanDir), readDir(t, dir), "resumed vs clean")
}

// TestPoolShrinksUnderRepeatedPanics: a streak of panicking cells
// retires workers down to a floor of one, and the sweep still
// completes with a record for every cell.
func TestPoolShrinksUnderRepeatedPanics(t *testing.T) {
	var cells []Experiment
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("boom-%02d", i)
		cells = append(cells, Experiment{Name: name, Run: func(int) ([]Artifact, error) {
			panic("systemic failure")
		}})
	}
	res, err := Run(cells, Options{OutDir: t.TempDir(), Jobs: 4, ShrinkAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersShrunk < 1 {
		t.Errorf("pool never shrank under 16 consecutive panics: %+v", res)
	}
	if res.WorkersShrunk > 3 {
		t.Errorf("pool shrank below the one-worker floor: %+v", res)
	}
	if res.Ran != 16 || len(res.Manifest.Records) != 16 {
		t.Errorf("sweep did not complete after shrinking: ran %d, records %d", res.Ran, len(res.Manifest.Records))
	}
	for _, rec := range res.Manifest.Records {
		if rec.Status != StatusFailed {
			t.Errorf("record %+v, want failed", rec)
		}
	}
}

// TestQuarantineThresholdExact: with Retries=2, a cell that fails
// exactly 3 retryable attempts is quarantined; one that succeeds on
// its final attempt is not.
func TestQuarantineThresholdExact(t *testing.T) {
	transient := errors.New("transient")
	mk := func(name string, failures int) Experiment {
		return Experiment{Name: name, Run: func(attempt int) ([]Artifact, error) {
			if attempt < failures {
				return nil, transient
			}
			return []Artifact{{Name: name + ".txt", Body: []byte("ok")}}, nil
		}}
	}
	res, err := Run([]Experiment{mk("justFails", 3), mk("justSucceeds", 2)}, Options{
		OutDir: t.TempDir(), Retries: 2,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := lookup(res.Manifest, "justFails"); rec.Status != StatusQuarantined || rec.Attempts != 3 {
		t.Errorf("justFails = %+v, want quarantined after exactly 3 attempts", rec)
	}
	if rec, _ := lookup(res.Manifest, "justSucceeds"); rec.Status != StatusOK || rec.Attempts != 3 {
		t.Errorf("justSucceeds = %+v, want ok on the final attempt", rec)
	}
}

// TestZeroRetriesConfigured: with no retry budget a retryable error is
// a plain failure after a single attempt — the retry machinery
// (backoff, quarantine) never engages.
func TestZeroRetriesConfigured(t *testing.T) {
	transient := errors.New("transient")
	attempts := 0
	res, err := Run([]Experiment{{Name: "once", Run: func(int) ([]Artifact, error) {
		attempts++
		return nil, transient
	}}}, Options{
		OutDir: t.TempDir(), Retries: 0,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) },
		Backoff:     BackoffConfig{Base: time.Hour}, // must never be waited on
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
	if rec, _ := lookup(res.Manifest, "once"); rec.Status != StatusFailed || rec.Attempts != 1 {
		t.Errorf("record = %+v, want failed after one attempt", rec)
	}
}

// TestRunDeadlineShorterThanFirstBackoff: when the whole-run deadline
// fires before the first backoff wait completes, the cell is recorded
// failed with the run-deadline cause — promptly, not after the full
// backoff.
func TestRunDeadlineShorterThanFirstBackoff(t *testing.T) {
	transient := errors.New("transient")
	start := time.Now()
	res, err := Run([]Experiment{{Name: "backedOff", Run: func(int) ([]Artifact, error) {
		return nil, transient
	}}}, Options{
		OutDir: t.TempDir(), Retries: 3,
		ShouldRetry: func(err error) bool { return errors.Is(err, transient) },
		Backoff:     BackoffConfig{Base: 10 * time.Second},
		RunTimeout:  60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("run deadline did not interrupt the backoff (took %v)", elapsed)
	}
	rec, ok := lookup(res.Manifest, "backedOff")
	if !ok || rec.Status != StatusFailed || !strings.Contains(rec.Error, "run deadline") {
		t.Errorf("record = %+v, want failed with run-deadline cause", rec)
	}
}

func TestNormalizeJobs(t *testing.T) {
	for _, jobs := range []int{0, -1, -100} {
		if got := NormalizeJobs(jobs); got < 1 {
			t.Errorf("NormalizeJobs(%d) = %d, want >= 1 (all cores)", jobs, got)
		}
	}
	if got := NormalizeJobs(1 << 20); got >= 1<<20 {
		t.Errorf("NormalizeJobs(1<<20) = %d, absurd values must be capped", got)
	}
	if got := NormalizeJobs(2); got != 2 {
		t.Errorf("NormalizeJobs(2) = %d, want 2 (sane values pass through)", got)
	}
}
