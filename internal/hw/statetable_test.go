package hw

import (
	"testing"

	"fairbench/internal/nf"
	"fairbench/internal/sim"
)

func TestSmartNICInstallRefusedAttributed(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("snic", s, SmartNICConfig{FlowTableSize: 2})
	sn.Install(flow(1))
	sn.Install(flow(2))
	for i := 3; i < 8; i++ {
		if sn.Install(flow(i)) {
			t.Fatalf("install %d accepted past capacity under EvictNone", i)
		}
	}
	if sn.InstallRefused != 5 {
		t.Errorf("InstallRefused = %d, want 5", sn.InstallRefused)
	}
	if sn.Evicted() != 0 {
		t.Errorf("Evicted = %d under EvictNone", sn.Evicted())
	}
}

func TestSmartNICLRUTableTracksLiveFlows(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("snic", s, SmartNICConfig{
		FlowTableSize: 2, TableEvict: nf.EvictLRU, EvictSeed: 1,
	})
	sn.Install(flow(1))
	sn.Install(flow(2))
	// Fast-path traffic on flow 1 keeps it warm; flow 2 is the victim.
	_ = s.At(0, func() { sn.Offload(flow(1), nil) })
	s.RunAll()
	if !sn.Install(flow(3)) {
		t.Fatal("LRU table must admit new flows by evicting")
	}
	if sn.Evicted() != 1 {
		t.Errorf("Evicted = %d", sn.Evicted())
	}
	_ = s.At(s.Now()+1, func() {
		if !sn.Offload(flow(1), nil) {
			t.Error("warm flow evicted instead of cold one")
		}
		if sn.Offload(flow(2), nil) {
			t.Error("cold flow should have been evicted")
		}
	})
	s.RunAll()
}

func TestFPGAFlowTableOverflowPunts(t *testing.T) {
	s := sim.New()
	f := NewFPGA("fpga", s, FPGAConfig{FlowTableSize: 2})
	served, punted := 0, 0
	_ = s.At(0, func() {
		for i := 0; i < 6; i++ {
			if f.SubmitFlow(flow(i), nil) {
				served++
			} else {
				punted++
			}
		}
		// Known flows still ride the pipeline at a full table.
		if !f.SubmitFlow(flow(0), nil) {
			t.Error("known flow punted")
		}
	})
	s.RunAll()
	if served != 2 || punted != 4 {
		t.Errorf("served/punted = %d/%d, want 2/4", served, punted)
	}
	if f.TablePunts != 4 {
		t.Errorf("TablePunts = %d", f.TablePunts)
	}
	if f.table.Len() != 2 {
		t.Errorf("table len = %d", f.table.Len())
	}
}

func TestFPGAUnboundedKeepsHistoricalBehaviour(t *testing.T) {
	s := sim.New()
	f := NewFPGA("fpga", s, FPGAConfig{})
	_ = s.At(0, func() {
		for i := 0; i < 64; i++ {
			if !f.SubmitFlow(flow(i), nil) {
				t.Fatalf("flow %d rejected with no table bound", i)
			}
		}
	})
	s.RunAll()
	if f.table != nil || f.TablePunts != 0 {
		t.Errorf("unbounded pipeline grew state: table=%v punts=%d", f.table != nil, f.TablePunts)
	}
}
