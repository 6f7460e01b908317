package testbed

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"fairbench/internal/fault"
	"fairbench/internal/obs"
	"fairbench/internal/workload"
)

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

// TestRunTraceOutOfOrder replays a trace whose timestamps run backwards
// in places and repeat in others. Replay orders records by (time, file
// position), so the result must equal that of the same records written
// already in that order, with and without link faults drawing coins per
// arrival.
func TestRunTraceOutOfOrder(t *testing.T) {
	g := e6gen(t)
	const n = 6000
	recs := make([]workload.TraceRecord, n)
	for i := range recs {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		// 300 ns apart (≈3.3 Mpps, enough to queue at the core), each
		// block of ten reversed, every seventh sharing its predecessor's
		// time; the last record stays the latest, as the horizon is taken
		// from it.
		ts := uint64(i/10*10+9-i%10) * 300
		if i%7 == 0 && i > 0 {
			ts = recs[i-1].TimestampNanos
		}
		if i == n-1 {
			ts = n * 300
		}
		recs[i] = workload.TraceRecord{TimestampNanos: ts, Frame: append([]byte(nil), pk.Frame...)}
	}
	sorted := append([]workload.TraceRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimestampNanos < sorted[j].TimestampNanos })
	encode := func(rs []workload.TraceRecord) []byte {
		var buf bytes.Buffer
		tw, err := workload.NewTraceWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if err := tw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	spec, err := fault.ParseSpec("linkloss:prob=0.05;seed:3")
	if err != nil {
		t.Fatal(err)
	}
	replay := func(raw []byte, faulted bool) (Result, FaultReport) {
		tr, err := workload.NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		d, err := BaselineFirewall(1)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		var rep FaultReport
		if faulted {
			res, rep, err = d.RunTraceWithFaults(tr, 1, spec)
		} else {
			res, err = d.RunTrace(tr, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	shuffled, inOrder := encode(recs), encode(sorted)
	for _, faulted := range []bool{false, true} {
		resA, repA := replay(shuffled, faulted)
		resB, repB := replay(inOrder, faulted)
		if resA.Offered.Packets != n {
			t.Errorf("faulted=%v: offered %d, want %d", faulted, resA.Offered.Packets, n)
		}
		if !reflect.DeepEqual(resA, resB) || !reflect.DeepEqual(repA, repB) {
			t.Errorf("faulted=%v: out-of-order replay differs from in-order replay:\n%+v\n%+v", faulted, resA, resB)
		}
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

// replayWithFaults records n CBR packets at 1 Mpps and replays them
// through a single-core baseline under the given fault spec.
func replayWithFaults(t *testing.T, n int, spec string) (Result, FaultReport) {
	t.Helper()
	var rec bytes.Buffer
	if err := workload.Record(&rec, e6gen(t), workload.CBR{}, 1e6, n); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTraceReader(&rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := d.RunTraceWithFaults(tr, 1, mustFaultSpec(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	requireConserved(t, d, res)
	return res, rep
}

// TestReplayLinkLossFaults checks link loss on the trace source: the
// lost share matches the clause's probability and the survivors are
// processed normally.
func TestReplayLinkLossFaults(t *testing.T) {
	res, rep := replayWithFaults(t, 20000, "linkloss:prob=0.3")
	if rep.LinkDropped == 0 {
		t.Fatal("no link drops recorded")
	}
	if res.LossFraction < 0.25 || res.LossFraction > 0.35 {
		t.Errorf("loss fraction = %v, want ≈0.3 (link drops)", res.LossFraction)
	}
	want := 0.7 * res.Offered.PacketsPerSecond()
	if got := res.Processed.PacketsPerSecond(); got < want*0.9 || got > want*1.1 {
		t.Errorf("processed = %v pps, want ≈%v", got, want)
	}
}

// TestReplayLinkCorruptFaults checks link corruption on the trace
// source: corrupted frames mostly fail header validation, so loss is
// nonzero but bounded by the corruption rate.
func TestReplayLinkCorruptFaults(t *testing.T) {
	res, rep := replayWithFaults(t, 20000, "linkcorrupt:prob=0.2")
	if rep.LinkCorrupted == 0 {
		t.Fatal("no corruption recorded")
	}
	if res.LossFraction == 0 {
		t.Error("corrupted frames should produce some parse-level loss")
	}
	if res.LossFraction > 0.25 {
		t.Errorf("loss = %v, cannot exceed corruption rate by much", res.LossFraction)
	}
}
