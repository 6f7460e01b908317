package runner

import "time"

// Observer receives wall-clock state transitions from the worker pool.
// It is the instrumentation seam between the executor and the
// telemetry layer (internal/telemetry): the runner stays free of any
// knowledge of telemetry files, and telemetry stays out of the
// execution path — a nil Observer costs nothing.
//
// Threading contract: cell-scoped callbacks are invoked from pool
// worker goroutines, possibly concurrently for different cells;
// callbacks for one cell are sequential (a cell runs all its attempts
// on one worker). CellResumeSkip fires before the pool starts, on the
// caller's goroutine. Implementations must be safe for concurrent use
// and must not block — the pool does real work between callbacks.
//
// None of the callbacks may influence execution: the Observer is a
// read-only tap, which is what keeps the artifact bytes identical with
// and without one attached.
type Observer interface {
	// CellStart fires when a worker begins an attempt of a cell
	// (attempt 0 on the first try, incremented per retry).
	CellStart(cell string, worker, attempt int)
	// CellAttemptError fires when an attempt fails, before the retry
	// decision. The error may wrap ErrPanic or ErrDeadline.
	CellAttemptError(cell string, worker, attempt int, err error)
	// CellRetryWait fires before the backoff sleep separating a failed
	// attempt from the next one.
	CellRetryWait(cell string, worker, attempt int, wait time.Duration)
	// CellFinish fires when a cell reaches a terminal state; rec
	// carries the final status, attempt count and wall duration.
	CellFinish(cell string, worker int, rec Record)
	// CellResumeSkip fires for a cell Resume found already complete.
	CellResumeSkip(cell string)
	// CellCutoff fires for a cell the whole-run deadline left
	// unstarted (it stays resumable).
	CellCutoff(cell string)
	// PoolShrink fires when repeated panics retire a worker; remaining
	// is the new pool width.
	PoolShrink(remaining int)
}

// NopObserver is an Observer that ignores every callback; the runner
// substitutes it for a nil Options.Observer.
type NopObserver struct{}

func (NopObserver) CellStart(string, int, int)                    {}
func (NopObserver) CellAttemptError(string, int, int, error)      {}
func (NopObserver) CellRetryWait(string, int, int, time.Duration) {}
func (NopObserver) CellFinish(string, int, Record)                {}
func (NopObserver) CellResumeSkip(string)                         {}
func (NopObserver) CellCutoff(string)                             {}
func (NopObserver) PoolShrink(int)                                {}

// CellWall pairs a cell with its recorded wall-clock duration, for
// operator-facing summaries. Wall durations live in the journal (a
// completion-order log outside the determinism surface) and in these
// summaries — never in the manifest, whose bytes must not vary run to
// run.
type CellWall struct {
	Experiment string
	WallMS     float64
}

// slowestCells is how many cells SlowestCells reports.
const slowestCells = 3

// SlowestCells returns up to slowestCells cells sorted by descending
// wall duration (ties broken by name for a stable order). Cells with no
// recorded duration (pre-journal manifests) are omitted.
func (r Result) SlowestCells() []CellWall {
	walls := append([]CellWall(nil), r.CellWalls...)
	for i := 1; i < len(walls); i++ {
		for j := i; j > 0; j-- {
			a, b := walls[j-1], walls[j]
			if a.WallMS > b.WallMS || (a.WallMS == b.WallMS && a.Experiment <= b.Experiment) {
				break
			}
			walls[j-1], walls[j] = b, a
		}
	}
	if slowestCells < len(walls) {
		walls = walls[:slowestCells]
	}
	return walls
}
