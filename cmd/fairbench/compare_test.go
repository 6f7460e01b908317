package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchDoc marshals a synthetic bench document for the compare
// tests.
func writeBenchDoc(t *testing.T, dir, name string, results []benchResult) string {
	t.Helper()
	doc := benchDoc{Schema: "fairbench-bench/v1", GoVersion: "go0.0", GOOS: "linux", GOARCH: "amd64",
		Benchmarks: results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baselineResults() []benchResult {
	return []benchResult{
		{Name: "packet-parse", NsPerOp: 100},
		{Name: "sim-event-throughput", NsPerOp: 50},
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", baselineResults())
	// packet-parse regresses 2x, past the default 1.5x gate.
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 200},
		{Name: "sim-event-throughput", NsPerOp: 50},
	})
	var out bytes.Buffer
	err := run([]string{"-compare", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{})
	if err == nil {
		t.Fatal("2x regression must exit nonzero")
	}
	if !strings.Contains(err.Error(), "packet-parse") {
		t.Errorf("error does not name the regressed case: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "2.00x") {
		t.Errorf("report:\n%s", out.String())
	}
}

func TestCompareIdenticalDocsPass(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", baselineResults())
	nw := writeBenchDoc(t, dir, "new.json", baselineResults())
	var out bytes.Buffer
	if err := run([]string{"-compare", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("identical docs must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("report:\n%s", out.String())
	}
}

func TestCompareWarnOnly(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", baselineResults())
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 500},
		{Name: "sim-event-throughput", NsPerOp: 50},
	})
	var out bytes.Buffer
	if err := run([]string{"-compare", "-warn-only", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("warn-only must exit zero: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "warn-only") {
		t.Errorf("report:\n%s", out.String())
	}
}

func TestComparePerCaseThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", baselineResults())
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 200}, // 2x, allowed by the 3x override
		{Name: "sim-event-throughput", NsPerOp: 50},
	})
	var out bytes.Buffer
	err := run([]string{"-compare", "-case-thresholds", "packet-parse=3.0", old, nw},
		strings.NewReader(""), &out, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("override should absorb the 2x: %v\n%s", err, out.String())
	}
	// But tightening the override below 2x must fail it.
	err = run([]string{"-compare", "-case-thresholds", "packet-parse=1.1", old, nw},
		strings.NewReader(""), &out, &bytes.Buffer{})
	if err == nil {
		t.Fatal("tightened override must fail the 2x case")
	}
}

func TestCompareMissingAndNewCases(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", baselineResults())
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "sim-event-throughput", NsPerOp: 50},
		{Name: "brand-new-case", NsPerOp: 10},
	})
	var out bytes.Buffer
	err := run([]string{"-compare", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{})
	if err == nil {
		t.Fatal("a dropped case must fail the gate")
	}
	got := out.String()
	if !strings.Contains(got, "MISSING") || !strings.Contains(got, "packet-parse") {
		t.Errorf("missing case not reported:\n%s", got)
	}
	if !strings.Contains(got, "brand-new-case") || !strings.Contains(got, "no baseline yet") {
		t.Errorf("new case not reported:\n%s", got)
	}
}

func TestCompareFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-compare", "one.json"},                          // not two args
		{"-compare", "a.json", "b.json", "c.json"},        // not two args
		{"-compare", "-example", "a.json", "b.json"},      // spec-mode conflict
		{"-compare", "-bench-json", "a.json", "b.json"},   // mode conflict
		{"-compare", "-case-thresholds", "bad", "a", "b"}, // malformed override
	} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}

func TestCompareRejectsNonBenchDoc(t *testing.T) {
	dir := t.TempDir()
	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"schema":"other/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeBenchDoc(t, dir, "good.json", baselineResults())
	if err := run([]string{"-compare", bogus, good}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("non-bench schema must be rejected")
	}
	if err := run([]string{"-compare", good, filepath.Join(dir, "absent.json")},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("missing file must be rejected")
	}
}

func TestParseCaseThresholds(t *testing.T) {
	got, err := parseCaseThresholds("a=1.5, b=2")
	if err != nil || got["a"] != 1.5 || got["b"] != 2 {
		t.Errorf("got %v, %v", got, err)
	}
	for _, bad := range []string{"a", "=2", "a=zero", "a=-1"} {
		if _, err := parseCaseThresholds(bad); err == nil {
			t.Errorf("%q: expected an error", bad)
		}
	}
	if got, err := parseCaseThresholds(""); err != nil || got != nil {
		t.Errorf("empty: %v, %v", got, err)
	}
}

// TestBenchJSONKeepsStdoutPure pins the stream contract: progress on
// stderr only, the JSON document alone on the output writer. Uses tiny
// fake cases so the test runs in milliseconds.
func TestBenchJSONKeepsStdoutPure(t *testing.T) {
	cases := map[string]func(b *testing.B){
		"fake-a": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = i * i
			}
		},
		"fake-b": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = i + i
			}
		},
	}
	var out, progress bytes.Buffer
	if err := benchJSON(cases, &out, &progress); err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, out.String())
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "fake-a" {
		t.Errorf("doc = %+v", doc)
	}
	for _, frag := range []string{"bench 1/2 fake-a", "bench 2/2 fake-b", "ns/op"} {
		if !strings.Contains(progress.String(), frag) {
			t.Errorf("progress missing %q:\n%s", frag, progress.String())
		}
	}
}

func TestCompareAllocGate(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "obs-span", NsPerOp: 300, AllocsPerOp: 6},
	})
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 100, AllocsPerOp: 2}, // new allocation on a zero-alloc path
		{Name: "obs-span", NsPerOp: 300, AllocsPerOp: 6},
	})
	// Alloc growth fails the gate even under -warn-only: counts are
	// deterministic, so there is no runner noise to forgive.
	var out bytes.Buffer
	err := run([]string{"-compare", "-warn-only", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{})
	if err == nil {
		t.Fatal("alloc growth must exit nonzero despite -warn-only")
	}
	if !strings.Contains(err.Error(), "packet-parse") {
		t.Errorf("error does not name the case: %v", err)
	}
	if !strings.Contains(out.String(), "ALLOCS") {
		t.Errorf("report missing the ALLOCS line:\n%s", out.String())
	}
	// A loosened budget absorbs the growth; a negative one disables the
	// gate entirely.
	for _, budget := range []string{"2", "-1"} {
		var out bytes.Buffer
		if err := run([]string{"-compare", "-max-alloc-growth", budget, old, nw},
			strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
			t.Errorf("-max-alloc-growth %s should pass: %v\n%s", budget, err, out.String())
		}
	}
}

func TestCompareAllocGateNeedsMatchingGoVersion(t *testing.T) {
	// Escape analysis moves allocation counts across Go releases, so
	// the alloc gate only arms when both documents share a version.
	dir := t.TempDir()
	doc := benchDoc{Schema: "fairbench-bench/v1", GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
		Benchmarks: []benchResult{{Name: "packet-parse", NsPerOp: 100, AllocsPerOp: 0}}}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	nw := writeBenchDoc(t, dir, "new.json", []benchResult{
		{Name: "packet-parse", NsPerOp: 100, AllocsPerOp: 5},
	})
	var out bytes.Buffer
	if err := run([]string{"-compare", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("cross-version alloc growth must not fail: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "alloc gate off") {
		t.Errorf("report missing the cross-version notice:\n%s", out.String())
	}
}

// TestCompareFractionalAllocGate pins the truthful gate: allocs_per_op
// is a fraction, so one new allocation per op on a path the baseline
// records as allocation-free fails, while amortized setup noise well
// under one allocation passes. bytes_per_op is gated the same way.
func TestCompareFractionalAllocGate(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchDoc(t, dir, "old.json", []benchResult{
		{Name: "sim-event-throughput", NsPerOp: 50, AllocsPerOp: 0.0, BytesPerOp: 0},
	})
	for _, c := range []struct {
		name          string
		allocs, bytes float64
		fail          string
	}{
		{"one new allocation per op", 1.0, 24, "ALLOCS"},
		{"amortized setup noise", 0.02, 3, ""},
		{"bytes grow without a new allocation count", 0.05, 40, "BYTES"},
	} {
		nw := writeBenchDoc(t, dir, "new.json", []benchResult{
			{Name: "sim-event-throughput", NsPerOp: 50, AllocsPerOp: c.allocs, BytesPerOp: c.bytes},
		})
		var out bytes.Buffer
		err := run([]string{"-compare", "-warn-only", old, nw}, strings.NewReader(""), &out, &bytes.Buffer{})
		if c.fail == "" {
			if err != nil {
				t.Errorf("%s: must pass: %v\n%s", c.name, err, out.String())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "sim-event-throughput") {
			t.Errorf("%s: must fail naming the case, got %v", c.name, err)
		}
		if !strings.Contains(out.String(), c.fail) {
			t.Errorf("%s: report missing the %s line:\n%s", c.name, c.fail, out.String())
		}
	}
}
