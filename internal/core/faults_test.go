package core

import (
	"reflect"
	"testing"
)

// faultTestWorkload spawns one allocation/compute task per vproc, long
// enough (in virtual time) for mid-run fault deadlines to land while the
// mutators are busy, with allocation safepoints dense enough that
// checkPreempt drains pending faults promptly.
func faultTestWorkload(rt *Runtime, iters int) int64 {
	return rt.Run(func(vp *VProc) {
		for v := 0; v < rt.Cfg.NumVProcs; v++ {
			vp.Spawn(func(wvp *VProc, _ Env) {
				for i := 0; i < iters; i++ {
					wvp.PushRoot(wvp.AllocRawN(32))
					wvp.Compute(500)
					wvp.PopRoots(1)
				}
			})
		}
	})
}

// TestRandomFaultPlanPure: the plan is a pure function of its arguments —
// identical inputs give identical plans, and every event respects the
// documented envelope (vproc range, deadline window, stall/burst bounds).
func TestRandomFaultPlanPure(t *testing.T) {
	const (
		seed    = 42
		nv      = 4
		horizon = 1_000_000
		stalls  = 5
		bursts  = 5
	)
	p1 := RandomFaultPlan(seed, nv, horizon, stalls, bursts)
	p2 := RandomFaultPlan(seed, nv, horizon, stalls, bursts)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same arguments produced different plans:\n%+v\n%+v", p1.Events, p2.Events)
	}
	p3 := RandomFaultPlan(seed+1, nv, horizon, stalls, bursts)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(p1.Events) != stalls+bursts {
		t.Fatalf("plan has %d events, want %d", len(p1.Events), stalls+bursts)
	}
	for i, e := range p1.Events {
		if e.VProc < 0 || e.VProc >= nv {
			t.Errorf("event %d targets vproc %d of %d", i, e.VProc, nv)
		}
		if e.At < horizon/8 || e.At >= horizon {
			t.Errorf("event %d at %d outside [%d, %d)", i, e.At, horizon/8, horizon)
		}
		switch e.Kind {
		case FaultStall:
			if e.StallNs < 20_000 || e.StallNs >= 200_000 {
				t.Errorf("event %d stall %d ns outside [20000, 200000)", i, e.StallNs)
			}
		case FaultBurst:
			if e.Words < 2048 || e.Words >= 2048+6144 {
				t.Errorf("event %d burst %d words outside [2048, 8192)", i, e.Words)
			}
		default:
			t.Errorf("event %d has unexpected kind %v", i, e.Kind)
		}
	}
}

// TestInstallFaultsValidates: malformed events must fail loudly at install
// time, not fire (or silently no-op) mid-run.
func TestInstallFaultsValidates(t *testing.T) {
	mustPanic := func(name string, p *FaultPlan) {
		t.Helper()
		rt := MustNewRuntime(stressConfig(t, 2))
		defer func() {
			if recover() == nil {
				t.Errorf("%s: InstallFaults did not panic", name)
			}
		}()
		rt.InstallFaults(p)
	}
	mustPanic("vproc out of range", (&FaultPlan{}).Stall(2, 1_000, 50_000))
	mustPanic("negative instant", (&FaultPlan{}).Burst(0, -1, 4096))
	mustPanic("nil close channel", &FaultPlan{Events: []FaultEvent{{At: 1_000, VProc: 0, Kind: FaultClose}}})
}

// TestFaultStallAndBurstDeterministic: a stall/burst plan perturbs the run
// (virtual time lost to the stall, heap pressure from the burst) but keeps
// it bit-deterministic — two runs with the same plan agree on the makespan
// and on every statistic, and the fault counters account for exactly the
// injected events.
func TestFaultStallAndBurstDeterministic(t *testing.T) {
	const iters = 200
	plan := func() *FaultPlan {
		return (&FaultPlan{}).
			Stall(0, 20_000, 100_000).
			Burst(1, 30_000, 4096).
			Stall(1, 40_000, 50_000)
	}

	baseline := faultTestWorkload(MustNewRuntime(stressConfig(t, 2)), iters)

	run := func() (int64, VPStats) {
		rt := MustNewRuntime(stressConfig(t, 2))
		rt.InstallFaults(plan())
		elapsed := faultTestWorkload(rt, iters)
		if err := rt.VerifyHeap(); err != nil {
			t.Fatalf("heap invariants after faulted run: %v", err)
		}
		return elapsed, rt.TotalStats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("faulted reruns diverged: %d ns %+v vs %d ns %+v", e1, s1, e2, s2)
	}
	if s1.FaultsInjected != 3 {
		t.Errorf("FaultsInjected = %d, want 3", s1.FaultsInjected)
	}
	if s1.FaultStallNs != 150_000 {
		t.Errorf("FaultStallNs = %d, want 150000", s1.FaultStallNs)
	}
	if s1.FaultBurstWords != 4096 {
		t.Errorf("FaultBurstWords = %d, want 4096", s1.FaultBurstWords)
	}
	// The two stalls overlap in virtual wall-clock (different vprocs), so
	// the makespan grows by at least the dominant 100us stall, not the sum.
	if e1 < baseline+90_000 {
		t.Errorf("faulted makespan %d ns not slowed by the injected stalls (baseline %d ns)", e1, baseline)
	}
}

// TestFaultsPastMakespanAreInert: fault timers do not count as outstanding
// work, so a deadline beyond the run's natural end neither fires nor keeps
// the runtime from quiescing.
func TestFaultsPastMakespanAreInert(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	rt.InstallFaults((&FaultPlan{}).Stall(0, 1<<40, 100_000))
	faultTestWorkload(rt, 20)
	if s := rt.TotalStats(); s.FaultsInjected != 0 {
		t.Errorf("an event past the makespan fired: FaultsInjected = %d", s.FaultsInjected)
	}
}
