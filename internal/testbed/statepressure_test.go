package testbed

import (
	"fmt"
	"testing"

	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/workload"
)

func pressureMeter(t *testing.T, probes []measure.StateProbe) *measure.StateMeter {
	t.Helper()
	sm := measure.NewStateMeter()
	for _, p := range probes {
		sm.AddProbe(p)
	}
	return sm
}

// TestRunScenarioHostStatePressure drives a SYN flood with
// never-repeating tuples into a small LRU conntrack: the table must
// fill, evict, and the meter must split goodput from throughput.
func TestRunScenarioHostStatePressure(t *testing.T) {
	d, probes, err := StatePressureHost("host", 1, nf.ConntrackConfig{MaxEntries: 256, Policy: nf.EvictLRU})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.NewScenarioGen(workload.Scenario{
		Flows:       2048,
		TCPFraction: 0.5,
		SYNFlood:    &workload.FloodClause{Rate: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sm := pressureMeter(t, probes)
	if _, err := d.RunScenario(sg, workload.CBR{}, 2e6, testDuration, sm); err != nil {
		t.Fatal(err)
	}
	s, err := sm.Summarize(testDuration)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, c := range s.Classes {
		classes[c.Class] = true
	}
	if !classes[string(workload.ClassLegit)] || !classes[string(workload.ClassFlood)] {
		t.Fatalf("classes = %+v, want legit and synflood", s.Classes)
	}
	if s.GoodputPps <= 0 || s.GoodputPps >= s.ThroughputPps {
		t.Errorf("goodput %v vs throughput %v: flood leakage should keep them apart", s.GoodputPps, s.ThroughputPps)
	}
	if len(s.Samples) == 0 {
		t.Fatal("no occupancy samples recorded")
	}
	ct := s.Tables[0]
	if ct.Name != "conntrack" || ct.PeakOccupancy != 256 {
		t.Errorf("conntrack probe = %+v, want full 256-entry table", ct)
	}
	if ct.Evictions == 0 {
		t.Error("LRU table under spoofed flood should evict")
	}
	stats := ConntrackStatsOf(d)
	if stats.Evicted == 0 || stats.NewFlows == 0 {
		t.Errorf("conntrack stats not attributed: %+v", stats)
	}
}

// TestRunScenarioDeterministic: identical scenario + seed + load give
// byte-identical results and state summaries across fresh deployments.
func TestRunScenarioDeterministic(t *testing.T) {
	run := func() (Result, string) {
		d, probes, err := StatePressureHost("host", 1, nf.ConntrackConfig{MaxEntries: 512, Policy: nf.EvictRandom, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := workload.NewScenarioGen(workload.Scenario{
			Flows:       4096,
			Skew:        1.1,
			TCPFraction: 0.3,
			Seed:        42,
			SYNFlood:    &workload.FloodClause{Rate: 0.2},
			Churn:       &workload.ChurnClause{Lifetime: testDuration / 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		sm := pressureMeter(t, probes)
		res, err := d.RunScenario(sg, workload.Poisson{}, 2e6, testDuration, sm)
		if err != nil {
			t.Fatal(err)
		}
		requireNoLatencyRejects(t, d)
		s, err := sm.Summarize(testDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.String()
	}
	r1, s1 := run()
	r2, s2 := run()
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
		t.Errorf("results differ:\n%+v\n%+v", r1, r2)
	}
	if s1 != s2 {
		t.Errorf("state summaries differ:\n%s\n%s", s1, s2)
	}
}

// TestRunScenarioFlashCrowdScalesOffered: a whole-run flash crowd at
// peak 2 should offer ~2x the packets of the flat scenario.
func TestRunScenarioFlashCrowdScalesOffered(t *testing.T) {
	offered := func(flash *workload.FlashClause) float64 {
		d, _, err := StatePressureHost("host", 2, nf.ConntrackConfig{MaxEntries: 4096, Policy: nf.EvictLRU})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := workload.NewScenarioGen(workload.Scenario{Flows: 1024, Flash: flash})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.RunScenario(sg, workload.CBR{}, 1e6, testDuration, nil)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Offered.Packets)
	}
	flat := offered(nil)
	boosted := offered(&workload.FlashClause{At: 0, For: 10 * testDuration, Peak: 2})
	ratio := boosted / flat
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("flash-crowd offered ratio = %.2f, want ≈2", ratio)
	}
}

// TestRunScenarioOffloadTableOverflow: churned flows against a tiny
// EvictNone offload table must fill it and keep it full (no evictions),
// punting the overflow onto the host path — the degradation regime the
// state-pressure experiment leans on.
func TestRunScenarioOffloadTableOverflow(t *testing.T) {
	snic := ScenarioSmartNIC
	snic.FlowTableSize = 64
	snic.TableEvict = nf.EvictNone
	d, probes, err := StatePressureSmartNIC("snic", snic, nf.ConntrackConfig{MaxEntries: 8192, Policy: nf.EvictLRU})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.NewScenarioGen(workload.Scenario{
		Flows: 4096,
		Churn: &workload.ChurnClause{Lifetime: testDuration / 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sm := pressureMeter(t, probes)
	if _, err := d.RunScenario(sg, workload.CBR{}, 2e6, testDuration, sm); err != nil {
		t.Fatal(err)
	}
	s, err := sm.Summarize(testDuration)
	if err != nil {
		t.Fatal(err)
	}
	offload := s.Tables[0]
	if offload.Name != "offload-table" {
		t.Fatalf("probe order changed: %+v", s.Tables)
	}
	if offload.PeakOccupancy != 64 {
		t.Errorf("offload table peak = %d, want full 64", offload.PeakOccupancy)
	}
	if offload.Evictions != 0 {
		t.Errorf("EvictNone table evicted %d entries", offload.Evictions)
	}
	if sn := d.SmartNIC(); sn.InstallRefused == 0 {
		t.Error("full EvictNone offload table should refuse installs")
	}
	// Punted flows land on the host conntrack.
	if s.Tables[1].PeakOccupancy == 0 {
		t.Error("host conntrack saw no punted flows")
	}
}

// TestRunScenarioRejectsBadParams covers the guard rails.
func TestRunScenarioRejectsBadParams(t *testing.T) {
	d, _, err := StatePressureHost("host", 1, nf.ConntrackConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := workload.NewScenarioGen(workload.Scenario{Flows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunScenario(sg, workload.CBR{}, 0, testDuration, nil); err == nil {
		t.Error("zero pps accepted")
	}
	if _, err := d.RunScenario(sg, workload.CBR{}, 1e6, 0, nil); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestRunScenarioMillionFlowsBoundedAndDeterministic is the
// internet-scale acceptance check: a 2^20-concurrent-flow Zipf
// population with flood and churn active runs under bounded state (the
// generator draws flows by index without materializing the population;
// the conntrack and offload tables stay at their configured bounds) and
// produces byte-identical summaries across fresh deployments.
func TestRunScenarioMillionFlowsBoundedAndDeterministic(t *testing.T) {
	sc := workload.Scenario{
		Flows:       1 << 20,
		Skew:        1.1,
		TCPFraction: 0.3,
		Seed:        5,
		SYNFlood:    &workload.FloodClause{Rate: 0.3},
		Churn:       &workload.ChurnClause{Lifetime: testDuration / 2},
	}
	const entries = 4096
	run := func() string {
		d, probes, err := StatePressureHost("host", 2, nf.ConntrackConfig{
			MaxEntries: entries, Policy: nf.EvictLRU, SYNCookies: true, Seed: sc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := workload.NewScenarioGen(sc)
		if err != nil {
			t.Fatal(err)
		}
		sm := pressureMeter(t, probes)
		res, err := d.RunScenario(sg, workload.Poisson{}, 4e6, testDuration, sm)
		if err != nil {
			t.Fatal(err)
		}
		requireNoLatencyRejects(t, d)
		s, err := sm.Summarize(testDuration)
		if err != nil {
			t.Fatal(err)
		}
		// The table is sharded per core, so the deployment-wide bound is
		// cores x MaxEntries.
		const bound = 2 * entries
		if st := ConntrackStatsOf(d); st.Entries > bound || s.Tables[0].PeakOccupancy > bound {
			t.Fatalf("state exceeded its bound: %d entries, peak %d (cap %d)",
				st.Entries, s.Tables[0].PeakOccupancy, bound)
		}
		if s.GoodputPps <= 0 {
			t.Fatal("million-flow run delivered nothing")
		}
		return fmt.Sprintf("%+v\n%s", res, s)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("million-flow run not byte-identical across fresh deployments:\n%s\n---\n%s", a, b)
	}
}
