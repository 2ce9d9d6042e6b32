package workload

import (
	"testing"

	"repro/internal/core"
)

// TestHeapExhaustionGracefulDegradation is the acceptance test for
// memory-pressure resilience: the full overload shape at 4x saturation on
// a heap bounded below the global-GC trigger (16 chunks; the trigger sits
// at 24, so the emergency ladder is the only collector). The run must not
// panic, every offered request must resolve exactly once, and the two
// policies must degrade in their distinct ways — the budget-blind queue
// policy hits the wall (emergency ladder walks, failed allocations,
// alloc-fail sheds) while the memory-aware policy sheds at admission
// above the occupancy watermark and never lets a mutator reach the wall.
func TestHeapExhaustionGracefulDegradation(t *testing.T) {
	run := func(adm AdmissionPolicy) (ServeResult, core.MemPressure) {
		cfg := heavyPressureConfig(16)
		cfg.GlobalBudgetChunks = 16
		rt := core.MustNewRuntime(cfg)
		opt := DefaultServeOptions(1.0)
		opt.Admission = adm
		opt.MeanGapNs = 40_000
		res := RunServe(rt, opt)
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("%v: heap invariants after exhaustion: %v", adm, err)
		}
		return res, rt.MemPressure()
	}

	blind, blindMP := run(AdmitQueue)
	aware, awareMP := run(AdmitMemory)

	for _, r := range []struct {
		name string
		res  ServeResult
	}{{"queue", blind}, {"memory", aware}} {
		checkLedger(t, r.name, r.res)
		if r.res.Completed == 0 {
			t.Errorf("%s: nothing completed — the pool stopped serving entirely", r.name)
		}
		if r.res.ShedMemory == 0 {
			t.Errorf("%s: no memory sheds on a 16-chunk heap at 4x load", r.name)
		}
	}

	// The budget-blind policy discovers exhaustion the hard way.
	if blindMP.EmergencyGCs == 0 {
		t.Error("queue: no emergency ladder walks — the budget never bound")
	}
	if blindMP.AllocFailed == 0 {
		t.Error("queue: no failed allocations — sheds did not come from the alloc gate")
	}
	// The memory-aware policy sheds before any mutator reaches the wall.
	if awareMP.EmergencyGCs != 0 {
		t.Errorf("memory: %d emergency ladder walks — the watermark gate should shed first", awareMP.EmergencyGCs)
	}
	if awareMP.AllocFailed != 0 {
		t.Errorf("memory: %d failed allocations behind the admission gate", awareMP.AllocFailed)
	}
	// Both runs stay within the budget modulo collector overdraft.
	for _, mp := range []core.MemPressure{blindMP, awareMP} {
		if mp.BudgetChunks != 16 {
			t.Errorf("BudgetChunks = %d, want 16", mp.BudgetChunks)
		}
	}
}

// TestHeapExhaustionStress48 is the -race stress shape: 48 vprocs on the
// heavy-GC configuration with a bounded heap AND a mid-run squeeze fault
// that clamps the budget to half the vproc count (legal only by injection;
// Config would reject it) before releasing it — emergency ladders, budget
// overdraft, admission sheds, and the release re-arm all interleaving with
// dense parallel collections. The books must still balance exactly.
func TestHeapExhaustionStress48(t *testing.T) {
	cfg := heavyPressureConfig(48)
	cfg.GlobalBudgetChunks = 48
	rt := core.MustNewRuntime(cfg)
	opt := DefaultServeOptions(1.0)
	opt.Admission = AdmitQueue
	opt.MeanGapNs = 40_000
	opt.Faults = (&core.FaultPlan{}).
		SqueezeAt(0, 60_000, 24).
		SqueezeAt(0, 150_000, 48)
	res := RunServe(rt, opt)

	checkLedger(t, "squeeze", res)
	if res.Stats.FaultsInjected != 2 {
		t.Errorf("FaultsInjected = %d, want 2 (squeeze + release)", res.Stats.FaultsInjected)
	}
	mp := rt.MemPressure()
	if mp.BudgetChunks != 48 {
		t.Errorf("BudgetChunks = %d at exit, want the released 48", mp.BudgetChunks)
	}
	if res.Completed == 0 {
		t.Error("nothing completed through the squeeze")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after the 48-vproc squeeze run: %v", err)
	}
}

// TestMempressureRerunDeterministic: the bounded-heap overload run — with
// the memory gate, emergency ladders, and a squeeze plan all active — is
// bit-identical across reruns. ServeResult is a comparable value
// struct, so one == catches any divergence.
func TestMempressureRerunDeterministic(t *testing.T) {
	run := func() ServeResult {
		cfg := heavyPressureConfig(16)
		cfg.GlobalBudgetChunks = 20
		rt := core.MustNewRuntime(cfg)
		opt := DefaultServeOptions(1.0)
		opt.Admission = AdmitMemory
		opt.MeanGapNs = 40_000
		opt.Faults = (&core.FaultPlan{}).
			SqueezeAt(0, 70_000, 16).
			SqueezeAt(0, 160_000, 0)
		return RunServe(rt, opt)
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("bounded-heap reruns diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.ShedMemory == 0 {
		t.Error("the memory gate never shed — the squeeze configuration is inert")
	}
}
