package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCleanTreeExitsZero(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-dir", "testdata/clean", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, stderr: %s, stdout: %s", code, errBuf.String(), out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree produced output: %s", out.String())
	}
}

func TestFindingsExitNonzero(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-dir", "testdata/dirty", "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	for _, want := range []string{"bad.go:11:14: wallclock", "bad.go:16:33: seedprov"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("finding %q not reported: %s", want, out.String())
		}
	}
	if !strings.Contains(errBuf.String(), "2 finding(s)") {
		t.Errorf("summary missing from stderr: %s", errBuf.String())
	}
}

func TestJSONOutputDeterministic(t *testing.T) {
	render := func() string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-json", "-dir", "testdata/dirty", "./..."}, &out, &errBuf); code != 1 {
			t.Fatalf("exit = %d (stderr: %s)", code, errBuf.String())
		}
		return out.String()
	}
	first := render()
	var findings []map[string]any
	if err := json.Unmarshal([]byte(first), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, first)
	}
	if len(findings) != 2 || findings[0]["rule"] != "wallclock" || findings[1]["rule"] != "seedprov" {
		t.Errorf("unexpected findings: %s", first)
	}
	if second := render(); second != first {
		t.Errorf("-json output not byte-identical\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

func TestUsageErrorExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-nonsense"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "usage: fairlint") {
		t.Errorf("usage missing: %s", errBuf.String())
	}
	for _, rule := range []string{"wallclock", "globalrand", "maporder", "simconc", "errtype",
		"taintreach", "seedprov", "hotalloc", "orderflow"} {
		if !strings.Contains(errBuf.String(), rule) {
			t.Errorf("usage does not list rule %s: %s", rule, errBuf.String())
		}
	}
}
