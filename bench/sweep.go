package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairbench"
	"fairbench/internal/measure"
	"fairbench/internal/rfc2544"
	"fairbench/internal/runner"
	"fairbench/internal/telemetry"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// quickSweep regenerates every paper artifact at fairbench.Quick()
// fidelity through runner.Run, as `fairfigs -quick` does: the wall time
// users wait for, reported as plain wall time. It runs once whatever
// -seconds says.
const quickSweep = "quick-sweep"

// sweepExperiments adapts fairbench.Experiments to runner cells exactly
// as fairfigs does, so the artifacts match its output byte for byte.
func sweepExperiments(opts fairbench.ExpOptions) []runner.Experiment {
	var exps []runner.Experiment
	for _, spec := range fairbench.Experiments() {
		spec := spec
		exps = append(exps, runner.Experiment{
			Name: spec.Name,
			Run: func(attempt int) ([]runner.Artifact, error) {
				o := opts
				if attempt > 0 {
					o.Seed = fairbench.TrialSeed(o.Seed, 1<<20+attempt)
				}
				arts, err := spec.Render(o)
				if err != nil {
					return nil, err
				}
				out := make([]runner.Artifact, len(arts))
				for i, a := range arts {
					out[i] = runner.Artifact{Name: a.Name, Body: a.Body}
				}
				return out, nil
			},
		})
	}
	return exps
}

// runSweep times one quick sweep into a temporary directory and checks
// every cell and artifact.
func runSweep(cfg config, log io.Writer) (*report, error) {
	rep := &report{tally: tally{log: log}}
	var sp *spans
	if cfg.trace {
		sp = newSpans()
	}
	dir, err := os.MkdirTemp("", "bench-sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := fairbench.Quick()
	opts.Seed = cfg.seed
	jobs := runner.NormalizeJobs(0)
	id := sp.begin("runner.Run", 0, -1)
	start := telemetry.Wall.Now()
	res, err := runner.Run(sweepExperiments(opts), runner.Options{
		OutDir:      dir,
		Jobs:        jobs,
		Retries:     1,
		ShouldRetry: func(err error) bool { return errors.Is(err, measure.ErrNonFinite) },
		Backoff:     runner.BackoffConfig{Base: 50 * time.Millisecond},
		Fingerprint: fmt.Sprintf("v1 trial=%g seed=%d trials=%d quick=%t", opts.TrialSeconds, opts.Seed, opts.Trials, true),
	})
	sweepNs := since(start)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	rss, err := rssMiB()
	if err != nil {
		return nil, err
	}
	if err := checkSweep(dir, res, cfg.golden, rep); err != nil {
		return nil, err
	}

	rep.endToEnd = []metric{
		{"sweep_s", sweepNs / 1e9, "s"},
		{"rss_mb", rss, "MiB"},
	}
	if !cfg.trace {
		return rep, nil
	}
	var busy, critical float64
	for _, c := range res.CellWalls {
		cell := c.WallMS / 1e3
		rep.perLayer = append(rep.perLayer, metric{"runner.cell_s." + c.Experiment, cell, "s"})
		busy += cell
		critical = max(critical, cell)
	}
	rep.perLayer = append(rep.perLayer,
		metric{"runner.pool_util", ratio(busy, float64(jobs)*sweepNs/1e9), "fraction"},
		metric{"runner.critical_path_s", critical, "s"})

	// One RFC 2544 search on the SmartNIC firewall at the sweep's
	// fidelity, with the bounds the experiments give it.
	id = sp.begin("rfc2544.Throughput", 0, -1)
	start = telemetry.Wall.Now()
	search, err := rfc2544.Throughput(testbed.SmartNICFirewall,
		func() (*workload.Generator, error) { return testbed.E6Workload(opts.Seed) },
		rfc2544.Opts{MinPps: 0.2e6, MaxPps: 24e6, TrialSeconds: opts.TrialSeconds, ResolutionFraction: opts.SearchResolution})
	searchNs := since(start)
	sp.end(id)
	var why string
	if err != nil {
		why = err.Error()
	}
	rep.record("rfc2544 search", why)
	rep.perLayer = append(rep.perLayer,
		metric{"rfc2544.search_s", searchNs / 1e9, "s"},
		metric{"rfc2544.trials_per_search", float64(len(search.Trials)), "trials"})
	return rep, sp.write(cfg.out, quickSweep)
}

// checkSweep records one operation per cell — ok on the first attempt,
// every artifact matching its golden hash — plus one for the artifact
// set as a whole. rep.digests receives the artifacts' hash lines.
func checkSweep(dir string, res runner.Result, golden []string, rep *report) error {
	m, err := runner.LoadManifest(res.ManifestPath)
	if err != nil {
		return err
	}
	want := map[string]string{}
	for _, line := range golden {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[1]] = f[0]
		}
	}
	seen := map[string]bool{}
	for _, rec := range m.Records {
		var bad []string
		if rec.Status != runner.StatusOK {
			bad = append(bad, fmt.Sprintf("status %s: %s", rec.Status, rec.Error))
		}
		if rec.Attempts != 1 {
			bad = append(bad, fmt.Sprintf("%d attempts", rec.Attempts))
		}
		for _, a := range rec.Artifacts {
			body, err := os.ReadFile(filepath.Join(dir, a.Name))
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			h := sha256.Sum256(body)
			sum := hex.EncodeToString(h[:])
			rep.digests = append(rep.digests, sum+"  "+a.Name)
			seen[a.Name] = true
			if golden != nil && want[a.Name] != sum {
				bad = append(bad, fmt.Sprintf("%s hashes to %s, golden %q", a.Name, sum, want[a.Name]))
			}
		}
		rep.record("cell "+rec.Experiment, bad...)
	}
	var missing []string
	for _, line := range golden {
		if f := strings.Fields(line); len(f) == 2 && !seen[f[1]] {
			missing = append(missing, f[1])
		}
	}
	var reasons []string
	if len(missing) > 0 {
		reasons = append(reasons, "golden artifacts not produced: "+strings.Join(missing, ", "))
	}
	if len(m.Records) != len(fairbench.Experiments()) {
		reasons = append(reasons, fmt.Sprintf("%d cells recorded, want %d", len(m.Records), len(fairbench.Experiments())))
	}
	rep.record("artifact set", reasons...)
	return nil
}
