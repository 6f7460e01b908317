package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairbench/internal/obs"
)

func TestRunHost(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "host", "-pps", "1e6", "-seconds", "0.005"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"fw-host-1core", "processed", "power (provisioned)", "50.0 W", "Per-device"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunAllSystems(t *testing.T) {
	for _, sys := range []string{"smartnic", "switch", "fpga"} {
		var out bytes.Buffer
		err := run([]string{"-system", sys, "-pps", "1e6", "-seconds", "0.003"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !strings.Contains(out.String(), "Jain fairness index") {
			t.Errorf("%s output incomplete:\n%s", sys, out.String())
		}
	}
}

func TestRunPoissonAndCores(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-cores", "2", "-poisson", "-pps", "2e6", "-seconds", "0.003"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fw-host-2core") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunSearch(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-search", "-seconds", "0.004"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RFC 2544 zero-loss throughput") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunUnknownSystem(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "quantum"}, &out); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[string]float64{"c": 1, "a": 2, "b": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("sortedKeys = %v", got)
	}
}

func TestRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "flow.fbtrace")
	var out bytes.Buffer
	if err := run([]string{"-record", trace, "-count", "3000", "-pps", "1e6"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recorded 3000 packets") {
		t.Errorf("record output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-replay", trace, "-system", "host"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "replayed 3000 packets") || !strings.Contains(got, "processed") {
		t.Errorf("replay output:\n%s", got)
	}
	// An accelerated replay overloads the single core.
	out.Reset()
	if err := run([]string{"-replay", trace, "-stretch", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stretch 0.20") {
		t.Errorf("stretch output:\n%s", out.String())
	}
}

func TestReplayMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", "/no/such/trace"}, &out); err == nil {
		t.Error("missing trace should fail")
	}
}

// TestRunWithImpairmentFlags: link impairments are -faults link
// clauses; a run under them reports every kind of casualty.
func TestRunWithImpairmentFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-pps", "1e6", "-seconds", "0.005",
		"-faults", "linkloss:prob=0.2;linkcorrupt:prob=0.1;linkdup:prob=0.1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "link faults:") || !strings.Contains(got, "duplicated") {
		t.Errorf("link-fault summary missing:\n%s", got)
	}
	if !strings.Contains(got, "loss") {
		t.Errorf("result table missing:\n%s", got)
	}
}

// TestRunRejectsBadImpairment: an out-of-range link-fault probability
// is a usage error.
func TestRunRejectsBadImpairment(t *testing.T) {
	for _, spec := range []string{"linkloss:prob=2", "linkcorrupt:prob=2", "linkdup:prob=2"} {
		var out bytes.Buffer
		if err := run([]string{"-faults", spec}, &out); err == nil {
			t.Errorf("-faults %s: probability > 1 should fail", spec)
		}
	}
}

func TestConflictingFlagCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"record+replay", []string{"-record", "a", "-replay", "b"}, "mutually exclusive"},
		{"search+replay", []string{"-search", "-replay", "b"}, "mutually exclusive"},
		{"search+record", []string{"-search", "-record", "a"}, "mutually exclusive"},
		{"trace+search", []string{"-trace", "t.jsonl", "-search"}, "-trace"},
		{"trace+record", []string{"-trace", "t.jsonl", "-record", "a"}, "-trace"},
		{"sample-every alone", []string{"-sample-every", "0.001"}, "requires -trace"},
		{"metrics alone", []string{"-metrics", "m.csv"}, "requires -trace"},
		{"negative sample period", []string{"-trace", "t.jsonl", "-sample-every", "-1"}, "positive"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestRunWithTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.jsonl")
	metricsPath := filepath.Join(dir, "metrics.csv")
	var out bytes.Buffer
	err := run([]string{"-system", "smartnic", "-pps", "2e6", "-seconds", "0.005",
		"-trace", tracePath, "-sample-every", "0.001", "-metrics", metricsPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"trace:", "Per-stage latency breakdown", "queue", "service", "io", "metrics snapshot"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}

	// The trace file is JSONL whose span events' stages sum to their
	// end-to-end latency (the headline acceptance criterion).
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var spans, samples int
	for i, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		switch e.Kind {
		case "span":
			spans++
			var sum float64
			for _, st := range e.Stages {
				sum += st.Dur
			}
			if math.Abs(sum-e.Dur) > 1e-12 {
				t.Fatalf("span %d stages sum %v != dur %v", e.ID, sum, e.Dur)
			}
		case "sample":
			samples++
		}
	}
	if spans == 0 || samples == 0 {
		t.Errorf("trace has %d spans, %d samples; want both > 0", spans, samples)
	}

	m, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(m), "name,labels,kind,value,count\n") {
		t.Errorf("metrics CSV malformed:\n%s", m)
	}
}

func TestReplayWithTrace(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "flow.fbtrace")
	tracePath := filepath.Join(dir, "replay.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-record", rec, "-count", "2000", "-pps", "1e6"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-replay", rec, "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Per-stage latency breakdown") {
		t.Errorf("replay trace output:\n%s", out.String())
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace file missing: %v", err)
	}
}

// TestMetricsJSONLExport pins the -metrics JSONL of a sampled 16-core
// host run, whose device names check the series-key order (core10
// before core1).
func TestMetricsJSONLExport(t *testing.T) {
	checkMetricsGolden(t, "metrics-host16.jsonl", "-system", "host", "-cores", "16", "-pps", "1e6",
		"-seconds", "0.003", "-sample-every", "0.001")
}

func TestRunWithFaultsFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "smartnic", "-poisson", "-pps", "4e6", "-seconds", "0.02",
		"-faults", "outage:dev=smartnic,at=5ms,for=5ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"Injected faults", "outage", "availability", "depth", "recovery", "loss"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunFaultsComposesWithTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "faulted.jsonl")
	var out bytes.Buffer
	err := run([]string{"-system", "smartnic", "-pps", "2e6", "-seconds", "0.01",
		"-faults", "outage:dev=smartnic,at=2ms,for=2ms", "-trace", tracePath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var faultSpans, faultEnds int
	for i, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		switch e.Kind {
		case "fault":
			faultSpans++
		case "fault-end":
			faultEnds++
		}
	}
	if faultSpans != 1 || faultEnds != 1 {
		t.Errorf("trace has %d fault / %d fault-end events, want 1/1", faultSpans, faultEnds)
	}
}

func TestReplayWithFaultsFlag(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "flow.fbtrace")
	var out bytes.Buffer
	if err := run([]string{"-record", trace, "-count", "5000", "-pps", "1e6"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"-replay", trace, "-system", "host",
		"-faults", "linkloss:prob=0.2;seed:5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Injected faults") || !strings.Contains(got, "dropped") {
		t.Errorf("faulted replay output:\n%s", got)
	}
}

func TestFaultsFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"faults+search", []string{"-faults", "linkloss:prob=0.1", "-search"}, "mutually exclusive"},
		{"faults+record", []string{"-faults", "linkloss:prob=0.1", "-record", "a"}, "mutually exclusive"},
		{"unknown kind", []string{"-faults", "meteor:dev=cores"}, "-faults"},
		{"bad prob", []string{"-faults", "linkloss:prob=1.5"}, "-faults"},
		{"bad duration", []string{"-faults", "outage:dev=cores,at=banana"}, "-faults"},
		{"missing value", []string{"-faults", "outage:dev="}, "-faults"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestRunReplicatedFixedRate(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "host", "-pps", "1e6", "-seconds", "0.003",
		"-trials", "3", "-ci", "0.9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"Replication over 3 seeded trials", "90% bootstrap CIs",
		"throughput (Gb/s)", "latency p99", "Half-width", "CV"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
	// Deterministic: same flags, same bytes.
	var again bytes.Buffer
	if err := run([]string{"-system", "host", "-pps", "1e6", "-seconds", "0.003",
		"-trials", "3", "-ci", "0.9"}, &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Error("replicated run is not deterministic across invocations")
	}
}

// TestRunReplicatedWithFaults: -trials composes with -faults; every
// trial runs under the spec and trial 0's fault report is printed once.
func TestRunReplicatedWithFaults(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "host", "-pps", "1e6", "-seconds", "0.003",
		"-trials", "3", "-faults", "linkloss:prob=0.05;linkdup:prob=0.05"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"Injected faults", "link faults:", "Replication over 3 seeded trials"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
	if n := strings.Count(got, "Injected faults"); n != 1 {
		t.Errorf("fault report printed %d times, want once (trial 0)", n)
	}
}

func TestRunReplicatedSearch(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-search", "-seconds", "0.003", "-trials", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"RFC 2544 zero-loss throughput", "zero-loss rate (Mpps)",
		"Replication over 2 seeded trials"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestTrialsFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-trials", "0"},
		{"-trials", "2", "-record", "x.trace"},
		{"-trials", "2", "-replay", "x.trace"},
		{"-trials", "2", "-trace", "x.jsonl"},
		{"-ci", "0.9"},                 // -ci without replication
		{"-trials", "2", "-ci", "1.5"}, // level outside (0, 1)
		{"-trials", "2", "-ci", "0"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v should be rejected", args)
		}
	}
}

func TestSortedKeysDeterministic(t *testing.T) {
	// The per-device power table iterates this result; it must be sorted
	// on every call or map iteration order would leak into the artifact.
	m := map[string]float64{}
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for i, k := range want {
		m[k] = float64(i)
	}
	for trial := 0; trial < 50; trial++ {
		got := sortedKeys(m)
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: keys[%d] = %q, want %q (unsorted map order leaked)", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRunProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs many saturation searches")
	}
	var out bytes.Buffer
	if err := run([]string{"-profile", "-system", "smartnic", "-seconds", "0.004"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"fw-smartnic saturates", "Per-operator saturation deltas",
		"smartnic-fastpath", "pre-knee", "post-knee", "Bottleneck per load regime"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunProfileHostCores(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs many saturation searches")
	}
	var out bytes.Buffer
	if err := run([]string{"-profile", "-system", "host", "-cores", "2", "-seconds", "0.004"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fw-host-2core saturates") {
		t.Errorf("-cores 2 should profile the 2-core host:\n%s", out.String())
	}
}

func TestProfileFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"profile+search", []string{"-profile", "-search"}, "mutually exclusive"},
		{"profile+replay", []string{"-profile", "-replay", "f"}, "-record/-replay"},
		{"profile+faults", []string{"-profile", "-faults", "linkloss:prob=0.1"}, "healthy"},
		{"profile+trace", []string{"-profile", "-trace", "t.jsonl"}, "mutually exclusive"},
		{"profile+pps", []string{"-profile", "-pps", "1e6"}, "canonical workload"},
		{"profile+fpga", []string{"-profile", "-system", "fpga"}, "no profile target"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestRunScenarioSmartNIC(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "smartnic", "-poisson", "-pps", "6e6", "-seconds", "0.01",
		"-scenario", "zipf:flows=50000,skew=1.1,tcp=0.3;synflood:rate=0.5;churn:life=5ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{
		"scenario: zipf:flows=50000", "seed:1", // canonical spec echoed with defaults applied
		"fw-smartnic-ct", "state pressure", "collateral",
		"offload-table", "conntrack", "Per-class delivery", "synflood",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunScenarioHostSeedPrecedence(t *testing.T) {
	// An explicitly-set -seed overrides the spec's seed clause; the
	// echoed canonical spec shows the seed that actually ran.
	var out bytes.Buffer
	err := run([]string{"-system", "host", "-cores", "2", "-pps", "2e6", "-seconds", "0.005",
		"-seed", "9", "-scenario", "zipf:flows=4096;flashcrowd:at=1ms,for=2ms,peak=3;seed:4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"seed:9", "fw-host-2core-ct", "flashcrowd:at=0.001"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
}

func TestRunScenarioReplicated(t *testing.T) {
	args := []string{"-system", "host", "-pps", "2e6", "-seconds", "0.004", "-trials", "3",
		"-scenario", "zipf:flows=4096,tcp=0.3;synflood:rate=0.4"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{"Replication over 3 seeded trials", "state pressure"} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Error("replicated scenario run is not deterministic across invocations")
	}
}

func TestScenarioFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"scenario+search", []string{"-scenario", "zipf:flows=1024", "-search"}, "mutually exclusive"},
		{"scenario+record", []string{"-scenario", "zipf:flows=1024", "-record", "a"}, "-record/-replay"},
		{"scenario+replay", []string{"-scenario", "zipf:flows=1024", "-replay", "a"}, "-record/-replay"},
		{"scenario+faults", []string{"-scenario", "zipf:flows=1024", "-faults", "linkloss:prob=0.1"}, "mutually exclusive"},
		{"scenario+trace", []string{"-scenario", "zipf:flows=1024", "-trace", "t.jsonl"}, "mutually exclusive"},
		{"scenario+profile", []string{"-scenario", "zipf:flows=1024", "-profile"}, "mutually exclusive"},
		{"scenario+flows", []string{"-scenario", "zipf:flows=1024", "-flows", "99"}, "owns the workload shape"},
		{"scenario+attack", []string{"-scenario", "zipf:flows=1024", "-attack", "0.5"}, "owns the workload shape"},
		{"scenario+switch", []string{"-scenario", "zipf:flows=1024", "-system", "switch"}, "host and smartnic"},
		{"bad spec", []string{"-scenario", "meteor:rate=1"}, "-scenario"},
		{"empty spec clause", []string{"-scenario", "zipf:flows=banana"}, "-scenario"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestMetricsGolden pins fairsim's -metrics export of one seeded traced
// run: every row, its order and its number format, in both encodings.
func TestMetricsGolden(t *testing.T) {
	for _, ext := range []string{"csv", "jsonl"} {
		checkMetricsGolden(t, "metrics-smartnic."+ext, "-system", "smartnic", "-seconds", "0.01",
			"-sample-every", "0.002")
	}
}

// checkMetricsGolden runs fairsim with args plus -trace and -metrics,
// the metrics file taking golden's extension, and fails unless the
// export equals testdata/golden byte for byte.
func checkMetricsGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	got := filepath.Join(dir, "metrics"+filepath.Ext(golden))
	var out bytes.Buffer
	args = append(args, "-trace", filepath.Join(dir, "trace.jsonl"), "-metrics", got)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	gotB, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, want) {
		t.Errorf("-metrics differs from testdata/%s\n--- got ---\n%s--- want ---\n%s", golden, gotB, want)
	}
}
