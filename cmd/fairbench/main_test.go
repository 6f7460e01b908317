package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExample(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-example"}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"fw-smartnic", "proposed-superior", "Principle 6"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-example", "-json"}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Proposed string `json:"proposed"`
		Verdicts []struct {
			Conclusion string `json:"conclusion"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if parsed.Proposed != "fw-smartnic" || len(parsed.Verdicts) != 2 {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestRunFromFile(t *testing.T) {
	spec := `{
	  "plane": "latency-power",
	  "proposed": {"name": "a", "perf": 5, "cost": 100},
	  "baselines": [{"name": "b", "perf": 10, "cost": 300}]
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "proposed-superior") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunFromStdin(t *testing.T) {
	spec := `{
	  "proposed": {"name": "a", "perf": 20, "cost": 70, "scalable": true},
	  "baselines": [{"name": "b", "perf": 10, "cost": 50, "scalable": true}]
	}`
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(spec), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Comparison: a") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestRunBadSpec: malformed or missing input fails, and so does input
// that would otherwise be silently dropped; each error names the inputs
// at fault.
func TestRunBadSpec(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stdin string
		want  []string // fragments the error must contain
	}{
		{args: nil, stdin: "{nope"},
		{args: []string{"/does/not/exist.json"}, want: []string{"/does/not/exist.json"}},
		{args: []string{"-audit", "-json"}, want: []string{"-audit", "-json"}},
		{args: []string{"-example", "x.json"}, want: []string{"-example", "x.json"}},
		{args: []string{"a.json", "b.json"}, want: []string{"a.json", "b.json"}},
	} {
		err := run(tc.args, strings.NewReader(tc.stdin), &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil {
			t.Errorf("%q: expected an error", tc.args)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%q: error %q does not name %s", tc.args, err, frag)
			}
		}
	}
}

func TestRunAuditMode(t *testing.T) {
	spec := `{
	  "cost_metrics": ["tco"],
	  "systems": [{"name": "sys", "components": {"host": {"tco": 10000}}}]
	}`
	var out bytes.Buffer
	if err := run([]string{"-audit"}, strings.NewReader(spec), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "violation") || !strings.Contains(got, "Principle 1") {
		t.Errorf("audit output:\n%s", got)
	}
}

// TestExitStderrOnePrefix pins the stderr line of a failed run: the
// library's errors and the command's own each carry exactly one
// "fairbench: " prefix, and the exit status is 1.
func TestExitStderrOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{args: []string{"-audit"}, want: "fairbench: parsing audit spec: unexpected end of JSON input\n"},
		{args: []string{"-audit", "-json"}, want: "fairbench: -audit and -json are mutually exclusive: the audit report is text only\n"},
	} {
		var stderr bytes.Buffer
		if code := exitCode(tc.args, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 1 {
			t.Errorf("%q: exit status %d, want 1", tc.args, code)
		}
		if got := stderr.String(); got != tc.want {
			t.Errorf("%q: stderr %q, want %q", tc.args, got, tc.want)
		}
	}
}
