// Command fairfigs regenerates every table and figure of the paper —
// Table 1, Figures 1-3, the three worked examples (§4.2, §4.2.1, §4.3),
// the pitfall demonstrations, the RFC 2544 measurement suite, the
// replicated robust-verdict example, and the §3.1 pricing-model release
// — into an output directory.
//
// Usage:
//
//	fairfigs [-out DIR] [-trial SECONDS] [-seed N] [-quick]
//	         [-trials K] [-jobs N] [-resume] [-exp-timeout DURATION]
//	         [-run-timeout DURATION] [-telemetry] [-pprof-dir DIR]
//
// The sweep runs through a fault-tolerant parallel runner: experiments
// fan out across a bounded worker pool (-jobs; 0 = one worker per
// core), each one panic-isolated and deadline-bounded, artifacts are
// written atomically (a killed run never leaves a truncated file), and
// completed experiments land in an fsync'd journal that lets -resume
// skip exactly the work already done. Results are merged in experiment
// order, so for a given seed, trial length and trial count the output
// directory is byte-identical at any -jobs value — diffable across
// runs, machines and parallelism levels.
//
// With -telemetry, the sweep additionally streams wall-clock telemetry
// (cell spans, retries, pool samples) to telemetry.jsonl in -out and
// renders a run summary and cell-execution Gantt chart beside it; with
// -pprof-dir, CPU and heap profiles bracket the sweep. Neither changes
// a single artifact byte — telemetry files sit outside the
// byte-identity surface, exactly like the journal.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairbench"
	"fairbench/internal/measure"
	"fairbench/internal/runner"
	"fairbench/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fairfigs:", err)
		os.Exit(1)
	}
}

// fingerprintFor ties a journal/manifest to the option set that
// produced its artifacts; -resume refuses to mix fingerprints. By
// contract the fingerprint must not encode -jobs (or any other
// execution knob that cannot change the bytes): a serial run may be
// resumed in parallel and vice versa.
func fingerprintFor(opts fairbench.ExpOptions, quick bool) string {
	return fmt.Sprintf("v1 trial=%g seed=%d trials=%d quick=%t",
		opts.TrialSeconds, opts.Seed, opts.Trials, quick)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fairfigs", flag.ContinueOnError)
	outDir := fs.String("out", "figures", "output directory")
	trial := fs.Float64("trial", 0.02, "simulated seconds per measurement trial")
	seed := fs.Uint64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced fidelity (shorter trials, coarser search)")
	trials := fs.Int("trials", 1, "independently seeded replicate measurements per system")
	jobs := fs.Int("jobs", 0, "experiments run concurrently (0 = one per core; output is identical at any value)")
	resume := fs.Bool("resume", false, "skip experiments whose artifacts are already intact in -out")
	expTimeout := fs.Duration("exp-timeout", 0, "per-experiment wall-clock deadline (0 = none)")
	runTimeout := fs.Duration("run-timeout", 0, "whole-run wall-clock deadline (0 = none; cut-off experiments resume later)")
	retries := fs.Int("retries", 1, "extra attempts (with a fresh seed) after a non-finite measurement")
	telemetryOn := fs.Bool("telemetry", false, "stream wall-clock telemetry to telemetry.jsonl in -out and render summary + Gantt")
	pprofDir := fs.String("pprof-dir", "", "write CPU and heap profiles bracketing the sweep into this directory")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expTimeout < 0 {
		return fmt.Errorf("-exp-timeout must be >= 0, got %v", *expTimeout)
	}
	if *runTimeout < 0 {
		return fmt.Errorf("-run-timeout must be >= 0, got %v", *runTimeout)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	}

	opts := fairbench.ExpOptions{TrialSeconds: *trial, Seed: *seed, Trials: *trials}
	if *quick {
		opts = fairbench.Quick()
		opts.Seed = *seed
		opts.Trials = *trials
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	fingerprint := fingerprintFor(opts, *quick)

	var exps []runner.Experiment
	for _, spec := range fairbench.Experiments() {
		spec := spec
		exps = append(exps, runner.Experiment{
			Name: spec.Name,
			Run: func(attempt int) ([]runner.Artifact, error) {
				o := opts
				if attempt > 0 {
					// A non-finite measurement poisoned the previous
					// attempt: derive a fresh seed far from the
					// per-trial seed sequence.
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

	normJobs := runner.NormalizeJobs(*jobs)

	// Observability taps: both are read-only and sit outside the
	// byte-identity surface — attaching them cannot change an artifact.
	var observer runner.Observer
	var rec *telemetry.Recorder
	stopSampler := func() {}
	if *telemetryOn {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		r, cerr := telemetry.Create(filepath.Join(*outDir, telemetry.FileName), telemetry.Options{
			Label:       "fairfigs sweep",
			Fingerprint: fingerprint,
			Jobs:        normJobs,
			Cells:       len(exps),
		})
		if cerr != nil {
			return cerr
		}
		rec = r
		observer = rec.RunnerObserver()
		stop := rec.StartSampler()
		stopped := false
		stopSampler = func() {
			if !stopped {
				stopped = true
				stop()
			}
		}
		defer stopSampler()
	}
	if *pprofDir != "" {
		stopProfiles, err := telemetry.CaptureProfiles(*pprofDir)
		if err != nil {
			return err
		}
		defer func() {
			if perr := stopProfiles(); perr != nil {
				fmt.Fprintln(stdout, "pprof:", perr)
			}
		}()
	}

	start := time.Now() //fairlint:allow wallclock operator progress reporting, never enters artifacts
	res, err := runner.Run(exps, runner.Options{
		OutDir:      *outDir,
		Jobs:        normJobs,
		Timeout:     *expTimeout,
		RunTimeout:  *runTimeout,
		Retries:     *retries,
		ShouldRetry: func(err error) bool { return errors.Is(err, measure.ErrNonFinite) },
		Backoff:     runner.BackoffConfig{Base: 50 * time.Millisecond},
		Resume:      *resume,
		Fingerprint: fingerprint,
		Log:         stdout,
		Observer:    observer,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond) //fairlint:allow wallclock operator progress reporting, never enters artifacts
	fmt.Fprintf(stdout, "%d artifacts in %v (%d experiments run, %d skipped, %d quarantined, %d unfinished)\n",
		res.ArtifactsWritten, elapsed, res.Ran, res.Skipped, res.Quarantined, res.Unfinished)
	if slow := res.SlowestCells(); len(slow) > 0 {
		parts := make([]string, len(slow))
		for i, cw := range slow {
			parts[i] = fmt.Sprintf("%s %.0f ms", cw.Experiment, cw.WallMS)
		}
		fmt.Fprintf(stdout, "slowest cells: %s\n", strings.Join(parts, ", "))
	}
	if rec != nil {
		stopSampler()
		// A telemetry write failure degrades observability, never the run.
		if terr := rec.Close(); terr != nil {
			fmt.Fprintln(stdout, "telemetry:", terr)
		} else if sum, terr := telemetry.WriteArtifacts(filepath.Join(*outDir, telemetry.FileName)); terr != nil {
			fmt.Fprintln(stdout, "telemetry:", terr)
		} else {
			fmt.Fprintf(stdout, "telemetry: %s, %s (pool utilization %.0f%%)\n",
				telemetry.SummaryName, telemetry.GanttName, sum.UtilizationPct)
		}
	}
	return res.Err()
}
