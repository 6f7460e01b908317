package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"fairbench/internal/runner"
)

// testCells builds n deterministic cells whose artifact bytes are pure
// functions of the cell name, with a dispatch log for the invariant
// checks.
type dispatchLog struct {
	mu    sync.Mutex
	calls map[string]int // "cell/attempt" -> count
}

func (d *dispatchLog) record(cell string, attempt int) {
	d.mu.Lock()
	d.calls[fmt.Sprintf("%s/%d", cell, attempt)]++
	d.mu.Unlock()
}

func cellBody(name string) []byte {
	return []byte(fmt.Sprintf("artifact of %s\nseeded payload %d\n", name, len(name)*131))
}

func testCells(n int, log *dispatchLog) []runner.Experiment {
	out := make([]runner.Experiment, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cell-%02d", i)
		out[i] = runner.Experiment{
			Name: name,
			Run: func(attempt int) ([]runner.Artifact, error) {
				if log != nil {
					log.record(name, attempt)
				}
				return []runner.Artifact{{Name: name + ".txt", Body: cellBody(name)}}, nil
			},
		}
	}
	return out
}

// readArtifacts returns name -> bytes for every artifact file in dir
// (journal and manifest excluded — the journal records completion
// order, and manifest Attempts legitimately differ after retries).
func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == runner.JournalName || e.Name() == runner.ManifestName {
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

// TestInjectionIsDeterministic: the same spec decides the same faults —
// a failing chaos schedule replays exactly.
func TestInjectionIsDeterministic(t *testing.T) {
	a, b := New(Spec{Seed: 7, PanicProb: 0.5}), New(Spec{Seed: 7, PanicProb: 0.5})
	differs := false
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("cell-%d", i)
		da, db := a.decide("panic", key, 0, 0.5), b.decide("panic", key, 0, 0.5)
		if da != db {
			t.Fatalf("decision for %s differs between identical injectors", key)
		}
		if da != a.decide("panic", key, 1, 0.5) {
			differs = true // attempt-sensitivity observed
		}
	}
	if !differs {
		t.Error("decisions never vary with attempt; retries could not clear faults")
	}
	if New(Spec{Seed: 8, PanicProb: 0.5}).decide("panic", "cell-0", 0, 0.5) ==
		a.decide("panic", "cell-0", 0, 0.5) &&
		New(Spec{Seed: 8, PanicProb: 0.5}).decide("panic", "cell-1", 0, 0.5) ==
			a.decide("panic", "cell-1", 0, 0.5) &&
		New(Spec{Seed: 8, PanicProb: 0.5}).decide("panic", "cell-2", 0, 0.5) ==
			a.decide("panic", "cell-2", 0, 0.5) {
		t.Log("note: seeds 7 and 8 agree on first three cells (possible but unlikely)")
	}
}

// TestChaosInvariants is the headline suite: across a grid of chaos
// seeds mixing panics, stalls, torn writes and ENOSPC, every sweep
// must uphold the executor's invariants — no lost cells, no duplicated
// cells, no (cell, attempt) dispatched twice, and artifacts intact
// (correct bytes) exactly for the cells recorded ok.
func TestChaosInvariants(t *testing.T) {
	const cells = 14
	specs := []Spec{
		{PanicProb: 0.3},
		{TornWriteProb: 0.4},
		{ENOSPCProb: 0.4},
		{PanicProb: 0.2, TornWriteProb: 0.2, ENOSPCProb: 0.2},
	}
	for _, base := range specs {
		for seed := uint64(1); seed <= 5; seed++ {
			spec := base
			spec.Seed = seed
			name := fmt.Sprintf("panic%.1f_torn%.1f_enospc%.1f_seed%d",
				spec.PanicProb, spec.TornWriteProb, spec.ENOSPCProb, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				in := New(spec)
				log := &dispatchLog{calls: map[string]int{}}
				dir := t.TempDir()
				res, err := runner.Run(in.WrapCells(testCells(cells, log)), runner.Options{
					OutDir:        dir,
					Jobs:          4,
					Retries:       6,
					ShouldRetry:   Retryable,
					WriteArtifact: in.ArtifactWriter(),
					Fingerprint:   "chaos-fp",
				})
				if err != nil {
					t.Fatal(err)
				}

				// Invariant: exactly one record per cell — none lost, none
				// duplicated.
				if got := len(res.Manifest.Records); got != cells {
					t.Errorf("manifest has %d records, want %d", got, cells)
				}
				seen := map[string]int{}
				for _, rec := range res.Manifest.Records {
					seen[rec.Experiment]++
				}
				for cell, n := range seen {
					if n != 1 {
						t.Errorf("cell %s has %d records", cell, n)
					}
				}

				// Invariant: no (cell, attempt) dispatched twice within the
				// run — attempt numbers are the seed-derivation input, so a
				// double dispatch would be a reused trial seed.
				log.mu.Lock()
				for key, n := range log.calls {
					if n != 1 {
						t.Errorf("(cell, attempt) %s dispatched %d times", key, n)
					}
				}
				log.mu.Unlock()

				// Invariant: a cell recorded ok has its artifact with exactly
				// the right bytes, injected torn writes notwithstanding.
				for _, rec := range res.Manifest.Records {
					path := filepath.Join(dir, rec.Experiment+".txt")
					data, rerr := os.ReadFile(path)
					if rec.Status == runner.StatusOK {
						if rerr != nil {
							t.Errorf("ok cell %s has no artifact: %v", rec.Experiment, rerr)
						} else if string(data) != string(cellBody(rec.Experiment)) {
							t.Errorf("ok cell %s artifact corrupted (%d bytes)", rec.Experiment, len(data))
						}
					}
				}
			})
		}
	}
}

// TestChaosThenResumeConvergesToCleanBytes: run under heavy chaos
// (quarantines expected), then resume with chaos off — the artifact
// directory must converge to exactly the bytes of a never-faulted run.
func TestChaosThenResumeConvergesToCleanBytes(t *testing.T) {
	const cells = 12
	cleanDir := t.TempDir()
	if _, err := runner.Run(testCells(cells, nil), runner.Options{
		OutDir: cleanDir, Fingerprint: "fp",
	}); err != nil {
		t.Fatal(err)
	}
	want := readArtifacts(t, cleanDir)

	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			in := New(Spec{Seed: seed, PanicProb: 0.5, TornWriteProb: 0.5, ENOSPCProb: 0.3})
			// Retries: 1 keeps the chaos run genuinely lossy — many cells
			// exhaust their budget and are quarantined.
			res, err := runner.Run(in.WrapCells(testCells(cells, nil)), runner.Options{
				OutDir: dir, Jobs: 4, Retries: 1,
				ShouldRetry:   Retryable,
				WriteArtifact: in.ArtifactWriter(),
				Fingerprint:   "fp",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("chaos run: ok=%d quarantined=%d failed=%d",
				res.Ran-res.Quarantined-res.Failed, res.Quarantined, res.Failed)

			// Resume without chaos: the executor re-runs exactly the cells
			// that did not complete, and the directory converges.
			res, err = runner.Run(testCells(cells, nil), runner.Options{
				OutDir: dir, Jobs: 4, Resume: true, Fingerprint: "fp",
			})
			if err != nil {
				t.Fatal(err)
			}
			if rerr := res.Err(); rerr != nil {
				t.Fatalf("resume did not converge: %v", rerr)
			}
			got := readArtifacts(t, dir)
			if len(got) != len(want) {
				t.Errorf("artifact count = %d, want %d", len(got), len(want))
			}
			var names []string
			for name := range want {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if got[name] != want[name] {
					t.Errorf("%s differs from clean run after chaos-then-resume", name)
				}
			}
			// The manifest must be all-ok after convergence.
			for _, rec := range res.Manifest.Records {
				if rec.Status != runner.StatusOK {
					t.Errorf("post-resume record %+v, want ok", rec)
				}
			}
		})
	}
}

// TestChaosStallTriggersDeadline: an injected stall longer than the
// per-cell deadline produces a deadline failure, and the sweep
// continues past it.
func TestChaosStallTriggersDeadline(t *testing.T) {
	in := New(Spec{Seed: 3, StallProb: 1, Stall: 2 * time.Second})
	res, err := runner.Run(in.WrapCells(testCells(3, nil)), runner.Options{
		OutDir:  t.TempDir(),
		Timeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Fatalf("stalled cells: failed = %d, want 3: %+v", res.Failed, res)
	}
	for _, rec := range res.Manifest.Records {
		if rec.Status != runner.StatusFailed {
			t.Errorf("record %+v, want deadline failure", rec)
		}
	}
}

// TestTornWriteLeavesNoHalfArtifactAfterRetry: a torn first write is
// retried; the surviving file must be the complete artifact, not the
// torn prefix.
func TestTornWriteLeavesNoHalfArtifactAfterRetry(t *testing.T) {
	dir := t.TempDir()
	// Probabilistic injection with per-(path, n) decisions: find a seed
	// whose first write of the artifact is torn and second is clean.
	var in *Injector
	for seed := uint64(1); ; seed++ {
		if seed > 10_000 {
			t.Fatal("no seed tears write 0 and passes write 1")
		}
		cand := New(Spec{Seed: seed, TornWriteProb: 0.5})
		path := filepath.Join(dir, "cell-00.txt")
		if cand.decide("torn", path, 0, 0.5) && !cand.decide("torn", path, 1, 0.5) {
			in = cand
			break
		}
	}
	res, err := runner.Run(testCells(1, nil), runner.Options{
		OutDir: dir, Retries: 3,
		ShouldRetry:   Retryable,
		WriteArtifact: in.ArtifactWriter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Manifest.Records) != 1 {
		t.Fatalf("manifest records = %+v, want one", res.Manifest.Records)
	}
	rec := res.Manifest.Records[0]
	if rec.Experiment != "cell-00" || rec.Status != runner.StatusOK || rec.Attempts != 2 {
		t.Fatalf("record = %+v, want ok on the retry", rec)
	}
	data, err := os.ReadFile(filepath.Join(dir, "cell-00.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(cellBody("cell-00")) {
		t.Errorf("artifact is the torn prefix (%d bytes), want the full body", len(data))
	}
}

// TestRetryableClassifiesInjectedFaults: both wrapped IO errors and
// flattened panic text are recognised; ordinary errors are not.
func TestRetryableClassifiesInjectedFaults(t *testing.T) {
	if !Retryable(fmt.Errorf("wrap: %w", ErrInjected)) {
		t.Error("wrapped ErrInjected not retryable")
	}
	if !Retryable(fmt.Errorf("runner: experiment panicked: %s: panic in c attempt 0", ErrInjected.Error())) {
		t.Error("flattened panic text not retryable")
	}
	if Retryable(fmt.Errorf("a real bug")) || Retryable(nil) {
		t.Error("non-injected errors must not be retryable")
	}
}
