package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fairbench/internal/perf"
	"fairbench/internal/stats"
	"fairbench/internal/telemetry"
	"fairbench/internal/testbed"
)

// since returns the wall time elapsed from start, in nanoseconds.
func since(start time.Time) float64 {
	return float64(telemetry.Wall.Now().Sub(start).Nanoseconds())
}

// cpuNs is the CPU time the process has used, in nanoseconds. Time the
// kernel gave to other tasks, or that the hypervisor stole, is not in it.
func cpuNs() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost runs fn once and returns the CPU time it took in nanoseconds with
// the number and bytes of heap allocations it made. Callers divide by
// the number of operations fn performed in floating point, so a case
// that allocates on every other call reports 0.5 allocations, not 0.
func cost(fn func()) (ns float64, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := cpuNs()
	fn()
	ns = cpuNs() - start
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// refNominalNs is the reference loop's CPU time on the machine the
// benchmark was calibrated on (a 2-vCPU Intel Xeon VM at 2.0 GHz).
const refNominalNs = 3e6

// calibrate returns the factor that converts CPU time measured now into
// reference time: refNominalNs over the reference loop's current CPU
// time. On a shared machine the CPU time of allocation-heavy code drifts
// by about ±10% within minutes; the simulator and the loop drift
// together (their ratio held within ±1.6%), so scaled times compare
// across runs. A forced collection first keeps the loop from paying for
// anyone else's garbage.
func calibrate() float64 {
	runtime.GC()
	return refNominalNs / reference()
}

// smoothScales replaces each sample's scale by the median scale of its
// neighbourhood (two samples on each side), so that one noisy reference
// reading cannot stretch or shrink a single trial.
func smoothScales(ss []sample) {
	raw := make([]float64, len(ss))
	for i, s := range ss {
		raw[i] = s.scale
	}
	for i := range ss {
		ss[i].scale = stats.Median(raw[max(0, i-2):min(len(raw), i+3)])
	}
}

var refSink uint64

// reference is a fixed workload shaped like the simulator's event loop —
// a binary heap of heap-allocated events carrying closures, a map update
// and a short-lived buffer per event — that calls no repository code, so
// no change to fairbench alters its cost. It returns its CPU time.
func reference() float64 {
	type event struct {
		at float64
		fn func()
	}
	start := cpuNs()
	q := make([]*event, 0, 64)
	push := func(e *event) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if q[p].at <= q[i].at {
				break
			}
			q[p], q[i] = q[i], q[p]
			i = p
		}
	}
	pop := func() *event {
		e, n := q[0], len(q)-1
		q[0] = q[n]
		q = q[:n]
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && q[r].at < q[l].at {
				l = r
			}
			if q[i].at <= q[l].at {
				break
			}
			q[i], q[l] = q[l], q[i]
			i = l
		}
		return e
	}
	counts := map[uint64]int{}
	var buf []byte
	v := uint64(1)
	for i := 0; i < 8; i++ {
		push(&event{at: float64(i)})
	}
	for n := 0; n < 1<<14; n++ {
		e := pop()
		v = v*6364136223846793005 + 1
		counts[v>>54]++
		buf = make([]byte, 64+int(v>>58)*8)
		x := uint64(n)
		push(&event{at: e.at + float64(v>>40)/(1<<24), fn: func() { refSink += x }})
	}
	refSink += uint64(len(buf) + len(counts))
	return cpuNs() - start
}

// rssMiB is the process's resident set size now (Linux).
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// span is one call the benchmark made into a layer. Times are wall
// seconds since the run began; Parent is the enclosing span's ID (0 at
// top level) and Trial the trial index (-1 outside trials).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Trial  int     `json:"trial"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, which is how untraced runs skip it.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: telemetry.Wall.Now()} }

// begin opens a span and returns its ID.
func (s *spans) begin(name string, parent, trial int) int {
	if s == nil {
		return 0
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Name: name, Start: since(s.t0) / 1e9, Parent: parent, Trial: trial})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = since(s.t0) / 1e9
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (s *spans) write(dir, workload string) error {
	if s == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, sp := range s.list {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".jsonl"), []byte(b.String()), 0o644)
}

//go:embed golden
var goldenFiles embed.FS

// loadGolden returns the golden lines of a workload, or nil when it has
// none (an unknown name fails later, with the list of valid ones).
func loadGolden(workload string) ([]string, error) {
	b, err := goldenFiles.ReadFile("golden/" + workload + ".txt")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if text := strings.TrimSpace(string(b)); text != "" {
		return strings.Split(text, "\n"), nil
	}
	return nil, nil
}

// digest fingerprints every field of a simulated Result exactly: floats
// print in their shortest round-tripping form and the per-device map in
// key order.
func digest(r testbed.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", r.Name, r.Duration)
	for _, t := range []perf.Throughput{r.Offered, r.Processed, r.Forwarded} {
		fmt.Fprintf(h, "%d,%d,%d|", t.Bits, t.Packets, t.Elapsed)
	}
	fmt.Fprintf(h, "%v|%v|%v|%v|%v|%v|%v|%v", r.LossFraction, r.LatencyMeanUs, r.LatencyP50Us,
		r.LatencyP99Us, r.JFI, r.AvgPowerWatts, r.ProvisionedPowerWatts, r.PerDeviceAvgWatts)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
