package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden/ from seed-1 runs of every workload")

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestMetricsMatchBenchmarkJSON runs every listed workload at two
// trials and checks the result line carries exactly the metric names
// and units BENCHMARK.json declares, untraced and traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range bj.Workloads {
		golden, err := loadGolden(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
			golden = nil
		}
		var log bytes.Buffer
		rep, err := runWorkload(config{workload: w.Name, seed: 1, trials: 2, trace: true, golden: golden}, &log)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, tc := range []struct {
			traced bool
			want   []namedUnit
		}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
			var out bytes.Buffer
			if err := rep.print(&out, tc.traced); err != nil {
				t.Fatal(err)
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, r.Correct, r.Attempted, r.Failed, log.String())
			}
			if len(r.Metrics) != len(tc.want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, tc.traced, len(r.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, tc.traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTamperedGoldenFails checks a digest mismatch counts as a failed
// operation and is named on the log.
func TestTamperedGoldenFails(t *testing.T) {
	var log bytes.Buffer
	rep, err := runWorkload(config{workload: "smartnic-e6", seed: 1, trials: 2, golden: []string{"tampered"}}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 2 || rep.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 and 1", rep.attempted, rep.failed)
	}
	if !strings.Contains(log.String(), "FAIL smartnic-e6 trial 0: result digest") {
		t.Errorf("failure not named on the log:\n%s", log.String())
	}
}

var allocSink []byte

// TestAllocsAreFractional guards against truncating allocations per
// operation to an integer: one allocation every other call is 0.5.
func TestAllocsAreFractional(t *testing.T) {
	const calls = 10000
	_, mallocs, _ := cost(func() {
		for i := 0; i < calls; i++ {
			if i%2 == 0 {
				allocSink = make([]byte, 64)
			}
		}
	})
	if got := float64(mallocs) / calls; got < 0.49 || got > 0.51 {
		t.Errorf("allocs per call = %v, want 0.5", got)
	}
}

// TestGolden checks the golden files cover every nominal trial; with
// -update it regenerates them from seed-1 runs (about two minutes):
//
//	go test -run TestGolden -update
func TestGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned on linux/amd64")
	}
	if !*update {
		for _, w := range simWorkloads {
			if g, err := loadGolden(w.name); err != nil || len(g) != w.trials {
				t.Errorf("golden/%s.txt: %d digests (err %v), want %d", w.name, len(g), err, w.trials)
			}
		}
		if g, err := loadGolden(quickSweep); err != nil || len(g) == 0 {
			t.Errorf("golden/%s.txt: %d artifact hashes (err %v)", quickSweep, len(g), err)
		}
		return
	}
	write := func(name string, rep *report) {
		t.Helper()
		if rep.failed != 0 {
			t.Fatalf("%s: %d of %d operations failed", name, rep.failed, rep.attempted)
		}
		body := strings.Join(rep.digests, "\n") + "\n"
		if err := os.WriteFile(filepath.Join("golden", name+".txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range simWorkloads {
		rep, err := w.bench(config{workload: w.name, seed: 1, trials: w.trials}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		write(w.name, rep)
	}
	rep, err := runSweep(config{workload: quickSweep, seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	write(quickSweep, rep)
}
