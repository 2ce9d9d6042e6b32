package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/numa"
)

// foTestOptions is a moderate-load failover shape for the small test
// machine: mean request ~28 words at 300 ns/word is ~8.4 us of service, and
// 2 replicas x 4 server chains on 4 vprocs serve ~0.48 requests/us while 40
// clients at a 100 us gap offer ~0.4/us — under capacity, so the crash-free
// baseline completes everything and a crash leaves measurable headroom for
// the survivors to absorb the rerouted load.
func foTestOptions() FailoverOptions {
	opt := DefaultFailoverOptions(1.0)
	opt.Clients = 40
	opt.Requests = 4
	opt.MeanGapNs = 100_000
	return opt
}

func runFailoverAt(t testing.TB, nv int, opt FailoverOptions) FailoverResult {
	t.Helper()
	return RunFailover(core.MustNewRuntime(testConfig(t, nv)), opt)
}

// foCheckPartition asserts the exact resolution partition (RunFailover also
// panics on a leak; the test gives a readable failure first).
func foCheckPartition(t *testing.T, label string, res FailoverResult) {
	t.Helper()
	if got := res.Completed + res.FailedDeadline + res.LostClient + res.ShedMemory; got != res.Offered {
		t.Errorf("%s: %d resolved of %d offered", label, got, res.Offered)
	}
	if res.GoodPre+res.GoodPost != res.GoodSLO {
		t.Errorf("%s: good split %d+%d != %d", label, res.GoodPre, res.GoodPost, res.GoodSLO)
	}
	if res.OfferedPre+res.OfferedPost != res.Offered {
		t.Errorf("%s: offered split %d+%d != %d", label, res.OfferedPre, res.OfferedPost, res.Offered)
	}
	if res.LostPre+res.LostPost != res.LostClient {
		t.Errorf("%s: lost split %d+%d != %d", label, res.LostPre, res.LostPost, res.LostClient)
	}
	if int64(res.Completed) != res.Hist.N() {
		t.Errorf("%s: %d completions but %d latency samples", label, res.Completed, res.Hist.N())
	}
}

// TestFailoverDeterministicRerun: the full result — makespan, checksum,
// every counter, the latency histogram, and the runtime statistics — is
// bit-identical across reruns for every crash kind, with and without
// hedging. FailoverResult is a comparable value struct, so one == catches
// any divergence.
func TestFailoverDeterministicRerun(t *testing.T) {
	for _, kind := range []CrashKind{CrashNone, CrashVProc} {
		for _, hedge := range []int64{0, 30_000} {
			opt := foTestOptions()
			opt.Crash = kind
			if kind != CrashNone {
				opt.CrashNs = 150_000
			}
			opt.HedgeDelayNs = hedge
			r1 := runFailoverAt(t, 4, opt)
			r2 := runFailoverAt(t, 4, opt)
			if r1 != r2 {
				t.Errorf("%v hedge=%d: reruns diverged:\n%+v\n%+v", kind, hedge, r1, r2)
			}
			if kind == CrashVProc && r1.Crashes != 1 {
				t.Errorf("%v: Crashes = %d, want 1", kind, r1.Crashes)
			}
			if hedge > 0 && r1.Hedged == 0 {
				t.Errorf("%v: hedging enabled but no hedge was ever sent", kind)
			}
		}
	}
}

// TestFailoverCrashFreeBaseline: with no crash and the pool under capacity,
// the harness is a plain replicated server — everything completes, nothing
// is lost, rerouted, or shed, and no crash code ran.
func TestFailoverCrashFreeBaseline(t *testing.T) {
	res := runFailoverAt(t, 4, foTestOptions())
	foCheckPartition(t, "crash-free", res)
	if res.Completed != res.Offered {
		t.Errorf("crash-free: %d of %d completed", res.Completed, res.Offered)
	}
	if res.LostClient != 0 || res.Rerouted != 0 || res.Crashes != 0 || res.ShedMemory != 0 {
		t.Errorf("crash-free: lost %d rerouted %d crashes %d shed %d",
			res.LostClient, res.Rerouted, res.Crashes, res.ShedMemory)
	}
	if res.Stats.LostTasks != 0 || res.Stats.LostConts != 0 || res.Stats.LostTimers != 0 {
		t.Errorf("crash-free: runtime reports lost work: %+v", res.Stats)
	}
}

// TestFailoverVProcCrashReroutes: killing one replica's home vproc
// mid-window trips its breaker (SendCrashed), reroutes traffic to the
// survivor, and the run still resolves every request exactly once. The
// crashed lane reports itself crashed, not merely closed.
func TestFailoverVProcCrashReroutes(t *testing.T) {
	opt := foTestOptions()
	opt.Crash = CrashVProc
	opt.CrashNs = 150_000
	res := runFailoverAt(t, 4, opt)
	foCheckPartition(t, "vproc-crash", res)
	if res.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", res.Crashes)
	}
	if res.Rerouted == 0 {
		t.Error("no attempt ever observed the crashed lane (SendCrashed)")
	}
	if res.BreakerTrips == 0 {
		t.Error("the dead replica's breaker never tripped")
	}
	if res.GoodPost == 0 {
		t.Error("no post-crash request met its SLO — the survivor never absorbed the load")
	}
	// Lost work is reported, not silently dropped: the crashed vproc held
	// parked server continuations and/or queued tasks.
	if res.Stats.LostTasks == 0 && res.Stats.LostConts == 0 {
		t.Errorf("crash reported no lost work: %+v", res.Stats)
	}
}

// TestFailoverHedgingMasksCrash: with hedging on, a request whose primary
// landed on the doomed replica is covered by a hedge copy on the survivor,
// so hedge wins appear and goodput does not collapse while the breaker is
// still learning about the crash.
func TestFailoverHedgingMasksCrash(t *testing.T) {
	opt := foTestOptions()
	opt.Crash = CrashVProc
	opt.CrashNs = 150_000
	opt.HedgeDelayNs = 20_000
	res := runFailoverAt(t, 4, opt)
	foCheckPartition(t, "hedged", res)
	if res.Hedged == 0 {
		t.Fatal("no hedges sent")
	}
	if res.HedgeWins == 0 {
		t.Error("no hedge ever resolved a request")
	}
}

// TestFailoverValidation: option errors are rejected at the API boundary,
// before any vproc runs.
func TestFailoverValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FailoverOptions)
	}{
		{"attempt exceeds deadline", func(o *FailoverOptions) { o.AttemptNs = FailoverDeadlineNs + 1 }},
		{"zero replicas", func(o *FailoverOptions) { o.Replicas = 0 }},
		{"zero lane depth", func(o *FailoverOptions) { o.LaneDepth = 0 }},
		{"crash without instant", func(o *FailoverOptions) { o.Crash = CrashVProc }},
		{"instant without crash", func(o *FailoverOptions) { o.CrashNs = 1 }},
		{"negative hedge", func(o *FailoverOptions) { o.HedgeDelayNs = -1 }},
		{"inverted backoff", func(o *FailoverOptions) { o.RetryCapNs = foRetryBase - 1 }},
		{"zero breaker threshold", func(o *FailoverOptions) { o.BreakerThreshold = 0 }},
		{"board kill on single-board machine", func(o *FailoverOptions) { o.Crash = CrashBoard; o.CrashNs = 1000 }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunFailover accepted the options", c.name)
				}
			}()
			opt := foTestOptions()
			c.mut(&opt)
			RunFailover(core.MustNewRuntime(testConfig(t, 4)), opt)
		}()
	}
}

// rackFailoverConfig is the correlated-failure machine: 32 vprocs spread
// over rack256's two boards.
func rackFailoverConfig() core.Config {
	return core.DefaultConfig(numa.Rack256(), 32)
}

// TestFailoverGracefulDegradation is the pinned acceptance gate: on rack256
// with replication 4 (two lane homes per board), a correlated board kill at
// mid-window takes out half the machine — 16 vprocs, two replicas, and
// every co-located client chain — and the serving layer still retains at
// least 50% goodput for the requests whose clients survived to observe an
// outcome. (Requests from clients that died with the board are LostClient:
// offered load that no serving fabric could have answered.)
func TestFailoverGracefulDegradation(t *testing.T) {
	rt := core.MustNewRuntime(rackFailoverConfig())
	opt := DefaultFailoverOptions(1.0)
	opt.Replicas = 4
	opt.Crash = CrashBoard
	opt.CrashNs = 1_200_000
	res := RunFailover(rt, opt)
	foCheckPartition(t, "board-kill", res)

	topo := rt.Cfg.Topo
	wantCrashes := 0
	keep := topo.BoardOfNode(rt.VProcs[0].Node)
	for _, vp := range rt.VProcs {
		if topo.BoardOfNode(vp.Node) != keep {
			wantCrashes++
		}
	}
	if res.Crashes != wantCrashes {
		t.Errorf("Crashes = %d, want %d (every vproc off board %d)", res.Crashes, wantCrashes, keep)
	}
	if res.LostClient == 0 {
		t.Error("a board kill left every co-located client chain alive")
	}
	// Pre-crash the pool is healthy: nearly everything offered before the
	// kill meets its SLO.
	if res.GoodPre*10 < res.OfferedPre*9 {
		t.Errorf("pre-crash goodput %d/%d below 90%%", res.GoodPre, res.OfferedPre)
	}
	// The pinned degradation bound: surviving replicas absorb the rerouted
	// load well enough that post-crash goodput stays at or above half.
	num, den := res.ServingGoodputPost()
	if den <= 0 {
		t.Fatalf("no post-crash requests with surviving clients (offered %d, lost %d)", res.OfferedPost, res.LostPost)
	}
	if num*2 < den {
		t.Errorf("post-crash serving goodput %d/%d below 50%%", num, den)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after board kill: %v", err)
	}
}

// TestFailoverReplicationRequired is the control for the degradation gate:
// with a single replica, killing its lane home leaves no survivor to
// reroute to, and post-crash goodput collapses to zero while the bound the
// replicated pool holds stays at 50%. Replication, not luck, is what the
// pinned test measures. (A board kill of an unreplicated pool is rejected
// outright — the single home lives on the coordinator's board, which no
// harness crash plan may target — so the control kills the home directly.)
func TestFailoverReplicationRequired(t *testing.T) {
	rt := core.MustNewRuntime(rackFailoverConfig())
	opt := DefaultFailoverOptions(1.0)
	opt.Replicas = 1
	opt.Crash = CrashVProc
	opt.CrashNs = 1_200_000
	res := RunFailover(rt, opt)
	foCheckPartition(t, "unreplicated home-kill", res)
	num, den := res.ServingGoodputPost()
	if den > 0 && num*2 >= den {
		t.Errorf("unreplicated pool somehow retained %d/%d post-crash goodput", num, den)
	}
}

// TestFailoverCrashStormFaultStress is the -race stress target for the
// crash subsystem under the serving workload: 48 vprocs on the heavy-GC
// configuration, a random multi-vproc crash storm layered on top of the
// harness's own lane-home kill, with the debug heap verifier on. Exercises
// crashed-heap adoption, SendCrashed rerouting, lost-client classification,
// and barrier shrinking while collections interleave densely.
func TestFailoverCrashStormFaultStress(t *testing.T) {
	cfg := heavyPressureConfig(48)
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	opt := DefaultFailoverOptions(1.0)
	opt.Replicas = 3
	opt.Crash = CrashVProc
	opt.CrashNs = 400_000
	opt.Faults = core.RandomCrashPlan(0xC5A54ED, 48, 1, 5, 1_500_000)
	res := RunFailover(rt, opt)
	foCheckPartition(t, "crash storm", res)
	if res.Crashes != 6 {
		t.Errorf("Crashes = %d, want 6 (5 random + 1 lane home)", res.Crashes)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Error("expected global collections under pressure")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after crash storm: %v", err)
	}
	// The storm must be survivable, not a total outage: some post-crash
	// work still completes on the surviving replicas.
	if res.Completed == 0 {
		t.Error("nothing completed through the crash storm")
	}
}

// TestFailoverSpecEntryPoint: the registry entry (used by the generic
// determinism suites) runs, crashes exactly one vproc, and stays
// verifier-clean.
func TestFailoverSpecEntryPoint(t *testing.T) {
	spec, err := ByName("failover")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 4)
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, 0.25)
	if res.Stats.Crashes != 1 {
		t.Errorf("spec run crashed %d vprocs, want 1", res.Stats.Crashes)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}
