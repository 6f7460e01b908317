package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingObserver appends one line per callback, for sequence
// assertions.
type recordingObserver struct {
	mu    sync.Mutex
	lines []string
}

func (o *recordingObserver) add(format string, args ...any) {
	o.mu.Lock()
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

func (o *recordingObserver) CellStart(cell string, worker, attempt int) {
	o.add("start %s a%d", cell, attempt)
}
func (o *recordingObserver) CellAttemptError(cell string, worker, attempt int, err error) {
	o.add("error %s a%d", cell, attempt)
}
func (o *recordingObserver) CellRetryWait(cell string, worker, attempt int, wait time.Duration) {
	o.add("wait %s a%d", cell, attempt)
}
func (o *recordingObserver) CellFinish(cell string, worker int, rec Record) {
	o.add("finish %s %s attempts=%d wall>0=%t", cell, rec.Status, rec.Attempts, rec.WallMS > 0)
}
func (o *recordingObserver) CellResumeSkip(cell string) { o.add("skip %s", cell) }
func (o *recordingObserver) CellCutoff(cell string)     { o.add("cutoff %s", cell) }
func (o *recordingObserver) PoolShrink(remaining int)   { o.add("shrink %d", remaining) }

func (o *recordingObserver) joined() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.lines, "\n")
}

func TestObserverSeesEveryTransition(t *testing.T) {
	dir := t.TempDir()
	flaky := errors.New("transient")
	attempts := 0
	exps := []Experiment{
		{Name: "good", Run: func(int) ([]Artifact, error) {
			return []Artifact{{Name: "good.txt", Body: []byte("ok\n")}}, nil
		}},
		{Name: "flaky", Run: func(attempt int) ([]Artifact, error) {
			attempts++
			if attempt == 0 {
				return nil, flaky
			}
			return []Artifact{{Name: "flaky.txt", Body: []byte("eventually\n")}}, nil
		}},
		{Name: "doomed", Run: func(int) ([]Artifact, error) { return nil, flaky }},
	}
	obs := &recordingObserver{}
	res, err := Run(exps, Options{
		OutDir:      dir,
		Retries:     1,
		ShouldRetry: func(err error) bool { return errors.Is(err, flaky) },
		Observer:    obs,
		Fingerprint: "obs-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 1 {
		t.Fatalf("result: %+v", res)
	}
	got := obs.joined()
	for _, want := range []string{
		"start good a0",
		"finish good ok attempts=1 wall>0=true",
		"start flaky a0",
		"error flaky a0",
		"wait flaky a0",
		"start flaky a1",
		"finish flaky ok attempts=2 wall>0=true",
		"start doomed a0",
		"error doomed a0",
		"start doomed a1",
		"error doomed a1",
		"finish doomed quarantined attempts=2 wall>0=true",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("observer missing %q; saw:\n%s", want, got)
		}
	}

	// Resume: the completed cells report as skips, with their wall
	// durations preserved in the journal and surfaced via CellWalls.
	obs2 := &recordingObserver{}
	res2, err := Run(exps, Options{
		OutDir:      dir,
		Resume:      true,
		Retries:     1,
		ShouldRetry: func(err error) bool { return errors.Is(err, flaky) },
		Observer:    obs2,
		Fingerprint: "obs-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Skipped != 2 {
		t.Fatalf("resume result: %+v", res2)
	}
	got2 := obs2.joined()
	for _, want := range []string{"skip good", "skip flaky"} {
		if !strings.Contains(got2, want) {
			t.Errorf("resume observer missing %q; saw:\n%s", want, got2)
		}
	}
	walls := map[string]float64{}
	for _, cw := range res2.CellWalls {
		walls[cw.Experiment] = cw.WallMS
	}
	if walls["good"] <= 0 || walls["flaky"] <= 0 {
		t.Errorf("resumed run lost completed cells' wall durations: %+v", res2.CellWalls)
	}
}

func TestWallDurationJournaledButNotInManifest(t *testing.T) {
	dir := t.TempDir()
	exps := []Experiment{{Name: "only", Run: func(int) ([]Artifact, error) {
		time.Sleep(2 * time.Millisecond) // make the duration visibly non-zero
		return []Artifact{{Name: "only.txt", Body: []byte("x\n")}}, nil
	}}}
	res, err := Run(exps, Options{OutDir: dir, Fingerprint: "wall-test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellWalls) != 1 || res.CellWalls[0].WallMS <= 0 {
		t.Fatalf("CellWalls = %+v", res.CellWalls)
	}
	slow := res.SlowestCells()
	if len(slow) != 1 || slow[0].Experiment != "only" {
		t.Errorf("SlowestCells = %+v", slow)
	}

	journal, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), "wall_ms") {
		t.Error("journal record carries no wall_ms")
	}
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(manifest), "wall_ms") {
		t.Error("manifest carries wall_ms — wall time leaked into the determinism surface")
	}
}

func TestSlowestCellsOrdersAndTruncates(t *testing.T) {
	r := Result{CellWalls: []CellWall{
		{Experiment: "b", WallMS: 5},
		{Experiment: "a", WallMS: 9},
		{Experiment: "c", WallMS: 5},
		{Experiment: "d", WallMS: 1},
	}}
	got := r.SlowestCells()
	want := []CellWall{{"a", 9}, {"b", 5}, {"c", 5}}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("SlowestCells = %+v, want %+v", got, want)
	}
}
