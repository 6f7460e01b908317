package testbed

import (
	"bytes"
	"reflect"
	"testing"

	"fairbench/internal/fault"
	"fairbench/internal/obs"
	"fairbench/internal/workload"
)

func TestRunWithImpairmentsDrop(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	res, stats, err := d.RunWithImpairments(g, workload.CBR{}, 1e6, testDuration,
		Impairments{DropProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Fatal("no impairment drops recorded")
	}
	// Impaired drops count as loss relative to offered load.
	frac := res.LossFraction
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("loss fraction = %v, want ≈0.3 (impairment drops)", frac)
	}
	// The surviving 70% is processed normally.
	want := 0.7 * 1e6
	got := res.Processed.PacketsPerSecond()
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("processed = %v pps, want ≈%v", got, want)
	}
}

func TestRunWithImpairmentsCorrupt(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	res, stats, err := d.RunWithImpairments(g, workload.CBR{}, 1e6, testDuration,
		Impairments{CorruptProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupted == 0 {
		t.Fatal("no corruption recorded")
	}
	// Corrupted frames are mostly rejected by header validation and
	// show up as loss; a byte flip in the payload region survives
	// parsing (UDP checksum is not re-verified by the firewall path),
	// so loss is bounded above by the corruption rate.
	if res.LossFraction == 0 {
		t.Error("corrupted frames should produce some parse-level loss")
	}
	if res.LossFraction > 0.25 {
		t.Errorf("loss = %v, cannot exceed corruption rate by much", res.LossFraction)
	}
}

func TestRunWithImpairmentsDuplicate(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	res, stats, err := d.RunWithImpairments(g, workload.CBR{}, 1e6, testDuration,
		Impairments{DupProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicated == 0 {
		t.Fatal("no duplicates recorded")
	}
	// Offered load includes duplicates: ≈1.5x the nominal rate.
	got := res.Offered.PacketsPerSecond()
	if got < 1.4e6 || got > 1.6e6 {
		t.Errorf("offered with duplication = %v pps, want ≈1.5M", got)
	}
}

func TestImpairmentsValidation(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	if _, _, err := d.RunWithImpairments(g, workload.CBR{}, 1e6, 0.001,
		Impairments{DropProb: 1.5}); err == nil {
		t.Error("probability > 1 should fail")
	}
}

func TestRunWithoutImpairmentsDelegates(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	res, stats, err := d.RunWithImpairments(g, workload.CBR{}, 1e6, 0.005, Impairments{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ImpairStats{}) {
		t.Errorf("stats = %+v, want zero", stats)
	}
	if res.LossFraction > 0.001 {
		t.Errorf("clean run loss = %v", res.LossFraction)
	}
}

func TestRunTraceReplay(t *testing.T) {
	// Record a trace from the generator, then replay it through a
	// deployment; the replayed run must process every frame.
	g := e6gen(t)
	var buf bytes.Buffer
	const n = 2000
	if err := workload.Record(&buf, g, workload.CBR{}, 1e6, n); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered.Packets != n {
		t.Errorf("offered = %d, want %d", res.Offered.Packets, n)
	}
	if res.LossFraction > 0.001 {
		t.Errorf("replay at 1 Mpps should not overload: loss = %v", res.LossFraction)
	}
	if res.Processed.Packets == 0 || res.LatencyP50Us <= 0 {
		t.Error("replay should process packets and measure latency")
	}
}

func TestRunTraceStretch(t *testing.T) {
	// Stretch 0.25 replays 4x as fast: a trace recorded at 12 Mpps
	// (already above capacity) becomes catastrophic, and one recorded
	// at 1 Mpps becomes 4 Mpps (above the ~3.2 Mpps core) and loses.
	g := e6gen(t)
	var buf bytes.Buffer
	if err := workload.Record(&buf, g, workload.CBR{}, 1e6, 20000); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunTrace(tr, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction < 0.05 {
		t.Errorf("4x-accelerated replay should overload the core: loss = %v", res.LossFraction)
	}
}

func TestRunTraceValidation(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	g := e6gen(t)
	var buf bytes.Buffer
	if err := workload.Record(&buf, g, workload.CBR{}, 1e6, 5); err != nil {
		t.Fatal(err)
	}
	tr, _ := workload.NewTraceReader(&buf)
	if _, err := d.RunTrace(tr, 0); err == nil {
		t.Error("zero stretch should fail")
	}
	// Empty trace.
	var empty bytes.Buffer
	tw, _ := workload.NewTraceWriter(&empty)
	_ = tw.Close()
	tr2, err := workload.NewTraceReader(&empty)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := BaselineFirewall(1)
	if _, err := d2.RunTrace(tr2, 1); err == nil {
		t.Error("empty trace should fail")
	}
}

// tracedFaultRun executes one SmartNIC firewall run under the given
// fault spec with tracing into buf.
func tracedFaultRun(t *testing.T, seed uint64, specStr string, buf *bytes.Buffer) (Result, FaultReport) {
	t.Helper()
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	g, err := E6Workload(seed)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(buf)
	d.Observe(tr, 0.002)
	res, rep, err := d.RunWithFaults(g, workload.Poisson{}, 4e6, testDuration, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil {
		t.Fatalf("trace error: %v", tr.Err())
	}
	requireNoLatencyRejects(t, d)
	return res, rep
}

// TestFaultedRunDeterministicBytes is the reproducibility contract
// under failure: the same workload seed and the same fault spec
// (including its stochastic MTTF/MTTR schedule and per-packet link
// loss) yield a byte-identical JSONL trace and identical measurements.
func TestFaultedRunDeterministicBytes(t *testing.T) {
	const spec = "outage:dev=smartnic,mttf=8ms,mttr=2ms;linkloss:prob=0.02;seed:7"
	var a, b bytes.Buffer
	resA, repA := tracedFaultRun(t, 42, spec, &a)
	resB, repB := tracedFaultRun(t, 42, spec, &b)
	if a.Len() == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed + same fault spec should yield a byte-identical trace")
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("results differ across identical faulted runs:\n%+v\n%+v", resA, resB)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("fault reports differ across identical faulted runs:\n%+v\n%+v", repA, repB)
	}
	if !bytes.Contains(a.Bytes(), []byte(`"fault"`)) {
		t.Error("trace records no fault spans")
	}

	// A different fault seed reshuffles the MTTF schedule and the link
	// coin flips: the trace must change.
	var c bytes.Buffer
	tracedFaultRun(t, 42, "outage:dev=smartnic,mttf=8ms,mttr=2ms;linkloss:prob=0.02;seed:8", &c)
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different fault seeds should yield different traces")
	}
}

// TestReplayWithFaultsDeterministic: trace replay under faults is as
// reproducible as generated traffic.
func TestReplayWithFaultsDeterministic(t *testing.T) {
	var rec bytes.Buffer
	if err := workload.Record(&rec, e6gen(t), workload.CBR{}, 1e6, 10000); err != nil {
		t.Fatal(err)
	}
	raw := rec.Bytes()
	spec, err := fault.ParseSpec("linkloss:prob=0.1;brownout:dev=cores,at=2ms,for=4ms,factor=0.5;seed:3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Result, FaultReport) {
		tr, err := workload.NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		d, err := BaselineFirewall(1)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := d.RunTraceWithFaults(tr, 1, spec)
		if err != nil {
			t.Fatal(err)
		}
		requireNoLatencyRejects(t, d)
		return res, rep
	}
	resA, repA := run()
	resB, repB := run()
	if !reflect.DeepEqual(resA, resB) || !reflect.DeepEqual(repA, repB) {
		t.Error("faulted replay is not deterministic")
	}
	if repA.LinkDropped == 0 {
		t.Error("replay saw no link drops")
	}
	if resA.LossFraction < 0.05 {
		t.Errorf("loss = %v, want ≥ link-loss floor", resA.LossFraction)
	}
}
