package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fairbench/internal/telemetry"
)

// TestRunWithTelemetry brackets a short fixed-rate run with -pprof-dir
// and checks that the measured output on stdout is unchanged and that
// both profiles are on disk.
func TestRunWithTelemetry(t *testing.T) {
	pprofDir := filepath.Join(t.TempDir(), "pprof")

	var plain, observed bytes.Buffer
	args := []string{"-system", "host", "-pps", "1e6", "-seconds", "0.005"}
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-pprof-dir", pprofDir), &observed); err != nil {
		t.Fatal(err)
	}
	if plain.String() != observed.String() {
		t.Error("capturing profiles changed the measured output")
	}
	for _, name := range []string{telemetry.CPUProfileName, telemetry.HeapProfileName} {
		info, err := os.Stat(filepath.Join(pprofDir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("profile %s: %v", name, err)
		}
	}
}

func TestRunTelemetryBadPaths(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-pprof-dir", string([]byte{0})}, &out); err == nil {
		t.Error("uncreatable pprof dir must fail")
	}
}
