package core

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/numa"
)

// memTestConfig is a bounded-heap configuration for the TryAlloc* tests:
// small chunks, a global trigger too high to ever fire (so the only
// collector is the emergency ladder), and a budget of budget chunks.
func memTestConfig(t testing.TB, nv, budget int) Config {
	t.Helper()
	topo, err := numa.NewCustom(numa.Topology{Name: "mem-test", Packages: 2, NodesPerPackage: 2, CoresPerNode: 2, LocalBW: 20, SamePkgBW: 15, RemoteBW: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, nv)
	cfg.LocalHeapWords = 8 << 10
	cfg.ChunkWords = 512
	cfg.GlobalTriggerWords = 1 << 30
	cfg.GlobalBudgetChunks = budget
	return cfg
}

// fillLive promotes rooted 60-word objects until the global heap has no
// mutator headroom, then overdrafts one more chunk's worth — so even after
// a compacting collection the live data strictly exceeds the budget. The
// addresses are pinned as global roots; the returned slice must stay alive.
func fillLive(rt *Runtime, vp *VProc) []heap.Addr {
	addrs := make([]heap.Addr, 0, 1024)
	fill := func() {
		s := vp.PushRoot(vp.AllocRawN(60))
		a := vp.Promote(vp.Root(s))
		vp.PopRoots(1)
		addrs = append(addrs, a)
		rt.RegisterGlobalRoot(&addrs[len(addrs)-1])
	}
	for rt.Chunks.HasHeadroom() {
		fill()
	}
	for i := 0; i < rt.Cfg.ChunkWords/61+1; i++ {
		fill()
	}
	return addrs
}

// TestTryAllocUnboundedIsAlloc: with no budget configured, the fallible
// allocators are schedule-identical to the infallible ones — same clock,
// same stats, no ladder walks — so unbounded baselines cannot drift.
func TestTryAllocUnboundedIsAlloc(t *testing.T) {
	run := func(try bool) (int64, VPStats) {
		rt := MustNewRuntime(memTestConfig(t, 2, 0))
		mk := rt.Run(func(vp *VProc) {
			for i := 0; i < 200; i++ {
				var a heap.Addr
				if try {
					var st AllocStatus
					if a, st = vp.TryAllocRawN(60); st != AllocOK {
						t.Fatalf("TryAllocRawN on an unbounded heap = %v", st)
					}
				} else {
					a = vp.AllocRawN(60)
				}
				s := vp.PushRoot(a)
				if try {
					if _, st := vp.TryPromote(vp.Root(s)); st != AllocOK {
						t.Fatalf("TryPromote on an unbounded heap = %v", st)
					}
				} else {
					vp.Promote(vp.Root(s))
				}
				vp.PopRoots(1)
			}
		})
		return mk, rt.TotalStats()
	}
	mkTry, stTry := run(true)
	mkPlain, stPlain := run(false)
	if mkTry != mkPlain {
		t.Errorf("makespan differs: TryAlloc %d ns, Alloc %d ns", mkTry, mkPlain)
	}
	if stTry != stPlain {
		t.Errorf("stats differ:\n  try:   %+v\n  plain: %+v", stTry, stPlain)
	}
	if stTry.EmergencyGCs != 0 || stTry.AllocFailed != 0 {
		t.Errorf("unbounded run walked the ladder: emergency %d, failed %d",
			stTry.EmergencyGCs, stTry.AllocFailed)
	}
}

// TestEmergencyLadderRecovers: at the budget with only garbage in the
// global heap, one emergency ladder walk (forced collection) frees the
// headroom and the allocation succeeds — AllocFailed is never reported.
// Under either collector: stop-the-world the forced cycle is one window,
// concurrently the ladder drives the open window, the mark and the closing
// window itself (Debug keeps the heap and tri-color verifiers on).
func TestEmergencyLadderRecovers(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg := memTestConfig(t, 2, 4)
		cfg.ConcurrentGlobal = concurrent
		cfg.Debug = true
		rt := MustNewRuntime(cfg)
		rt.Run(func(vp *VProc) {
			// Promote unrooted garbage until the budget is exhausted.
			for rt.Chunks.HasHeadroom() {
				s := vp.PushRoot(vp.AllocRawN(60))
				vp.Promote(vp.Root(s))
				vp.PopRoots(1)
			}
			a, st := vp.TryAllocRawN(60)
			if st != AllocOK || a == 0 {
				t.Errorf("concurrent=%v: TryAllocRawN over reclaimable garbage = %v, want ok", concurrent, st)
			}
		})
		total := rt.TotalStats()
		if total.EmergencyGCs == 0 {
			t.Errorf("concurrent=%v: no emergency ladder walk — the gate never saw the exhausted budget", concurrent)
		}
		if total.AllocFailed != 0 {
			t.Errorf("concurrent=%v: AllocFailed = %d with a fully reclaimable heap, want 0", concurrent, total.AllocFailed)
		}
		if rt.Stats.GlobalGCs == 0 {
			t.Errorf("concurrent=%v: the ladder never escalated to a global collection", concurrent)
		}
	}
}

// TestTryAllocFailsOnLiveHeap: when live data exceeds the budget, the
// ladder runs once, fails, and reports AllocFailed as a status — then
// fails fast (no second stop-the-world) until the deterministic re-arm
// signals fire. Nothing panics and the infallible collector paths still
// work via overdraft.
func TestTryAllocFailsOnLiveHeap(t *testing.T) {
	rt := MustNewRuntime(memTestConfig(t, 2, 4))
	var addrs []heap.Addr
	rt.Run(func(vp *VProc) {
		addrs = fillLive(rt, vp)

		gcsBefore := rt.Stats.GlobalGCs
		if _, st := vp.TryAllocRawN(60); st != AllocFailed {
			t.Errorf("TryAllocRawN over a live over-budget heap = %v, want alloc-failed", st)
		}
		if vp.Stats.EmergencyGCs != 1 {
			t.Errorf("EmergencyGCs = %d after the first failure, want 1", vp.Stats.EmergencyGCs)
		}
		if rt.Stats.GlobalGCs != gcsBefore+1 {
			t.Errorf("GlobalGCs = %d, want %d — the ladder must escalate to global",
				rt.Stats.GlobalGCs, gcsBefore+1)
		}

		// Fail-fast: an immediate retry must not run another ladder.
		if _, st := vp.TryAllocRawN(60); st != AllocFailed {
			t.Errorf("second TryAllocRawN = %v, want alloc-failed", st)
		}
		s := vp.PushRoot(vp.AllocRawN(8))
		if _, st := vp.TryPromote(vp.Root(s)); st != AllocFailed {
			t.Errorf("TryPromote = %v, want alloc-failed", st)
		}
		vp.PopRoots(1)
		if vp.Stats.EmergencyGCs != 1 {
			t.Errorf("EmergencyGCs = %d after fail-fast retries, want still 1", vp.Stats.EmergencyGCs)
		}
		if vp.Stats.AllocFailed != 3 {
			t.Errorf("AllocFailed = %d, want 3", vp.Stats.AllocFailed)
		}

		// The virtual-time re-arm: after emergencyRetryNs the gate walks
		// the ladder again (and fails again — the data is still live).
		vp.SleepFor(emergencyRetryNs + 1)
		if _, st := vp.TryAllocRawN(60); st != AllocFailed {
			t.Errorf("post-re-arm TryAllocRawN = %v, want alloc-failed", st)
		}
		if vp.Stats.EmergencyGCs != 2 {
			t.Errorf("EmergencyGCs = %d after the re-arm window, want 2", vp.Stats.EmergencyGCs)
		}
	})
	mp := rt.MemPressure()
	if mp.ActiveChunks <= mp.BudgetChunks {
		t.Errorf("live fill should overdraft: %d active of %d budget", mp.ActiveChunks, mp.BudgetChunks)
	}
	if mp.Overdrafts == 0 {
		t.Error("no overdraft recorded for the over-budget promotions")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after alloc failures: %v", err)
	}
	_ = addrs
}

// TestSqueezeFaultTogglesBudget: a FaultSqueeze rewrites the budget at its
// virtual instant — clamping an unbounded heap into AllocFailed territory —
// and a second squeeze releases it; the release also re-arms the fail-fast
// ladder immediately (no emergencyRetryNs wait).
func TestSqueezeFaultTogglesBudget(t *testing.T) {
	rt := MustNewRuntime(memTestConfig(t, 2, 0))
	var addrs []heap.Addr
	rt.Run(func(vp *VProc) {
		// Live data first, while the heap is unbounded.
		addrs = make([]heap.Addr, 0, 1024)
		for i := 0; i < 40; i++ {
			s := vp.PushRoot(vp.AllocRawN(60))
			a := vp.Promote(vp.Root(s))
			vp.PopRoots(1)
			addrs = append(addrs, a)
			rt.RegisterGlobalRoot(&addrs[len(addrs)-1])
		}
		occupied := rt.Chunks.ActiveChunks()
		plan := (&FaultPlan{}).
			SqueezeAt(0, vp.Now()+1_000, occupied/2).
			SqueezeAt(0, vp.Now()+50_000, 0)
		rt.InstallFaults(plan)

		if _, st := vp.TryAllocRawN(60); st != AllocOK {
			t.Errorf("pre-squeeze TryAllocRawN = %v, want ok", st)
		}
		vp.SleepFor(2_000) // cross the squeeze
		if got := rt.MemPressure().BudgetChunks; got != occupied/2 {
			t.Fatalf("BudgetChunks = %d after the squeeze, want %d", got, occupied/2)
		}
		if _, st := vp.TryAllocRawN(60); st != AllocFailed {
			t.Errorf("squeezed TryAllocRawN = %v, want alloc-failed", st)
		}
		vp.SleepFor(60_000) // cross the release; well inside emergencyRetryNs
		if got := rt.MemPressure().BudgetChunks; got != 0 {
			t.Fatalf("BudgetChunks = %d after the release, want 0", got)
		}
		if _, st := vp.TryAllocRawN(60); st != AllocOK {
			t.Errorf("released TryAllocRawN = %v, want ok — the release must re-arm the ladder", st)
		}
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after squeeze faults: %v", err)
	}
}

// TestBudgetConfigValidated: Config.normalize rejects unusable budgets
// instead of clamping them, and cost constants the engine could not charge.
func TestBudgetConfigValidated(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative global", func(c *Config) { c.GlobalBudgetChunks = -1 }},
		{"global below vprocs", func(c *Config) { c.GlobalBudgetChunks = 1 }},
		{"negative cost constant", func(c *Config) { c.PollNs = -1 }},
		{"zero poll interval", func(c *Config) { c.PollNs = 0 }},
		{"zero steal probe", func(c *Config) { c.StealAttemptNs = 0 }},
	} {
		cfg := memTestConfig(t, 2, 0)
		tc.mut(&cfg)
		if _, err := NewRuntime(cfg); err == nil {
			t.Errorf("%s: NewRuntime accepted the config", tc.name)
		}
	}
	// Budget == NumVProcs is the smallest legal bounded heap.
	if _, err := NewRuntime(memTestConfig(t, 2, 2)); err != nil {
		t.Errorf("budget == vprocs rejected: %v", err)
	}
}
