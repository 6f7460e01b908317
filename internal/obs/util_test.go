package obs

import (
	"testing"

	"fairbench/internal/sim"
)

func TestSamplerNoSourcesArmsNothing(t *testing.T) {
	s := sim.New()
	sp := NewSampler(New(nil), 1.0)
	if err := sp.Arm(s, 10); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if s.Processed() != 0 {
		t.Errorf("sourceless sampler scheduled %d events, want 0", s.Processed())
	}
}

func TestEmptyTraceAggregation(t *testing.T) {
	tr := New(nil)
	if got := tr.Breakdown().Stages(); len(got) != 0 {
		t.Errorf("empty trace: StageStat aggregation returned %d stages", len(got))
	}
	if tr.Breakdown().Spans() != 0 || tr.Breakdown().TotalSeconds() != 0 {
		t.Error("empty trace: breakdown totals should be zero")
	}
	if got := tr.Utilization().Devices(); len(got) != 0 {
		t.Errorf("empty trace: utilization summary returned %d devices", len(got))
	}
	if _, ok := tr.Utilization().Bottleneck(); ok {
		t.Error("empty trace: Bottleneck should report no samples")
	}
	var nilTr *Tracer
	if nilTr.Utilization() != nil {
		t.Error("nil tracer: Utilization should be nil")
	}
	if nilTr.Utilization().Devices() != nil {
		t.Error("nil summary: Devices should be nil")
	}
	if _, ok := nilTr.Utilization().Bottleneck(); ok {
		t.Error("nil summary: Bottleneck should report no samples")
	}
}

func TestUtilSummaryAggregation(t *testing.T) {
	tr := New(nil)
	// Interleaved samples for two devices plus a non-sample event that
	// must be ignored by the summary.
	tr.Emit(Event{T: 1, Kind: "sample", Device: "cores", Util: 0.25, Queue: 2})
	tr.Emit(Event{T: 1, Kind: "sample", Device: "smartnic", Util: 0.875, Queue: 0})
	tr.Emit(Event{T: 1, Kind: "span", Device: "cores", Dur: 1})
	tr.Emit(Event{T: 2, Kind: "sample", Device: "cores", Util: 0.75, Queue: 10})
	tr.Emit(Event{T: 2, Kind: "sample", Device: "smartnic", Util: 0.625, Queue: 1})

	devs := tr.Utilization().Devices()
	if len(devs) != 2 || devs[0].Device != "cores" || devs[1].Device != "smartnic" {
		t.Fatalf("want first-seen order [cores smartnic], got %+v", devs)
	}
	c := devs[0]
	if c.Samples != 2 || c.MeanUtil() != 0.5 || c.MaxUtil != 0.75 || c.MaxQueue != 10 || c.MeanQueue() != 6 {
		t.Errorf("cores aggregate wrong: %+v mean=%v meanQ=%v", c, c.MeanUtil(), c.MeanQueue())
	}

	bn, ok := tr.Utilization().Bottleneck()
	if !ok || bn.Device != "smartnic" {
		t.Errorf("want bottleneck smartnic (mean 0.75 > 0.5), got %+v ok=%v", bn, ok)
	}
}

func TestBottleneckTieBreaks(t *testing.T) {
	var u UtilSummary
	u.add(Event{Kind: "sample", Device: "a", Util: 0.5, Queue: 3})
	u.add(Event{Kind: "sample", Device: "b", Util: 0.5, Queue: 7})
	u.add(Event{Kind: "sample", Device: "c", Util: 0.5, Queue: 7})
	bn, ok := u.Bottleneck()
	if !ok || bn.Device != "b" {
		t.Errorf("equal mean util: want max-queue then first-seen winner b, got %+v", bn)
	}
}

func TestSamplerFeedsUtilSummary(t *testing.T) {
	s := sim.New()
	tr := New(nil)
	busy := 0.0
	sp := NewSampler(tr, 1.0, Source{
		Name:        "dev",
		Busy:        func() float64 { return busy },
		Queue:       func() int { return 4 },
		IdleWatts:   5,
		ActiveWatts: 10,
	})
	if err := sp.Arm(s, 3); err != nil {
		t.Fatal(err)
	}
	// Half-busy in every window.
	if err := s.At(0, func() { busy = 0.5 }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(1.5, func() { busy = 1.0 }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(2.5, func() { busy = 1.5 }); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	bn, ok := tr.Utilization().Bottleneck()
	if !ok || bn.Device != "dev" || bn.Samples != 3 {
		t.Fatalf("want 3 samples for dev, got %+v ok=%v", bn, ok)
	}
	if bn.MeanUtil() != 0.5 || bn.MaxQueue != 4 {
		t.Errorf("want mean util 0.5 max queue 4, got mean=%v %+v", bn.MeanUtil(), bn)
	}
}
