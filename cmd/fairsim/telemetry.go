package main

import (
	"fairbench/internal/telemetry"
)

// attachTelemetry brackets one fairsim invocation with the wall-clock
// observability layer: a "fairsim" span (status ok/failed from the
// run's returned error), a background runtime sampler, and — when
// pprofDir is set — CPU and heap profiles. It returns a finish
// function the caller defers with a pointer to its named error; all
// telemetry sits outside the deterministic output surface, so
// attaching it cannot change a single byte fairsim prints or writes.
func attachTelemetry(telemetryPath, pprofDir string) (finish func(*error), err error) {
	stopProfiles := func() error { return nil }
	if pprofDir != "" {
		stopProfiles, err = telemetry.CaptureProfiles(pprofDir)
		if err != nil {
			return nil, err
		}
	}
	var rec *telemetry.Recorder
	stopSampler := func() {}
	endSpan := func(error) {}
	if telemetryPath != "" {
		rec, err = telemetry.Create(telemetryPath, telemetry.Options{Label: "fairsim", Jobs: 1, Cells: 1})
		if err != nil {
			stopProfiles()
			return nil, err
		}
		stopSampler = rec.StartSampler()
		endSpan = rec.Span()
	}
	return func(errp *error) {
		endSpan(*errp)
		stopSampler()
		if rec != nil {
			if cerr := rec.Close(); cerr != nil && *errp == nil {
				*errp = cerr
			}
		}
		if perr := stopProfiles(); perr != nil && *errp == nil {
			*errp = perr
		}
	}, nil
}
