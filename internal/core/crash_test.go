package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Crashed reports whether a FaultCrash killed this vproc.
func (vp *VProc) Crashed() bool { return vp.crashed }

// Crashed reports whether the channel was retired by its owner's crash.
func (ch *Channel) Crashed() bool { return ch.crashed }

// Lost reports whether the task was lost to a vproc crash instead of
// completing. Join on a lost task returns immediately; JoinResult yields 0.
func (t *Task) Lost() bool { return t.lost }

// TestRandomCrashPlanPure: the crash plan is a pure function of its
// arguments, every target is a distinct vproc in [keepLow, nv), and every
// instant lands in the documented [horizon/8, horizon) window.
func TestRandomCrashPlanPure(t *testing.T) {
	const (
		seed    = 7
		nv      = 16
		keepLow = 2
		crashes = 6
		horizon = 1_000_000
	)
	p1 := RandomCrashPlan(seed, nv, keepLow, crashes, horizon)
	p2 := RandomCrashPlan(seed, nv, keepLow, crashes, horizon)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same arguments produced different plans:\n%+v\n%+v", p1.Events, p2.Events)
	}
	if reflect.DeepEqual(p1, RandomCrashPlan(seed+1, nv, keepLow, crashes, horizon)) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(p1.Events) != crashes {
		t.Fatalf("plan has %d events, want %d", len(p1.Events), crashes)
	}
	seen := map[int]bool{}
	for i, e := range p1.Events {
		if e.Kind != FaultCrash {
			t.Errorf("event %d has kind %v, want crash", i, e.Kind)
		}
		if e.VProc < keepLow || e.VProc >= nv {
			t.Errorf("event %d targets vproc %d outside [%d, %d)", i, e.VProc, keepLow, nv)
		}
		if seen[e.VProc] {
			t.Errorf("event %d crashes vproc %d twice", i, e.VProc)
		}
		seen[e.VProc] = true
		if e.At < horizon/8 || e.At >= horizon {
			t.Errorf("event %d at %d outside [%d, %d)", i, e.At, horizon/8, horizon)
		}
	}
}

// TestInstallCrashValidates: malformed crash events are rejected eagerly at
// install time — out-of-range targets, ambiguous targets, empty failure
// domains, and duplicate kills of the same vproc all panic.
func TestInstallCrashValidates(t *testing.T) {
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
	mustPanic("negative instant", (&FaultPlan{}).CrashAt(0, -1))
	mustPanic("vproc out of range", (&FaultPlan{}).CrashAt(2, 1_000))
	mustPanic("node out of range", (&FaultPlan{}).CrashNodeAt(99, 1_000))
	mustPanic("board out of range", (&FaultPlan{}).CrashBoardAt(99, 1_000))
	mustPanic("duplicate vproc crash", (&FaultPlan{}).CrashAt(1, 1_000).CrashAt(1, 2_000))
	mustPanic("no target", &FaultPlan{Events: []FaultEvent{
		{At: 1_000, VProc: -1, Kind: FaultCrash, Node: -1, Board: -1}}})
	mustPanic("both vproc and node", &FaultPlan{Events: []FaultEvent{
		{At: 1_000, VProc: 0, Kind: FaultCrash, Node: 0, Board: -1}}})
	mustPanic("both node and board", &FaultPlan{Events: []FaultEvent{
		{At: 1_000, VProc: -1, Kind: FaultCrash, Node: 0, Board: 0}}})
	// stressConfig(t, 2) places both vprocs on node 0 of a 4-node topology:
	// node 3 is in range but hosts no vproc — an inert kill is a plan bug.
	mustPanic("empty node domain", (&FaultPlan{}).CrashNodeAt(3, 1_000))
	// A node kill overlapping an earlier single-vproc kill is a duplicate.
	mustPanic("node overlaps vproc", (&FaultPlan{}).CrashAt(0, 1_000).CrashNodeAt(0, 2_000))
}

// crashTestWorkload is faultTestWorkload plus periodic promotion: the
// promoted words drive the global-heap trigger, so crash instants land both
// inside and around stop-the-world collections, and the run is long enough
// (in virtual time) for every planned kill to fire before quiescence.
func crashTestWorkload(rt *Runtime, iters int) int64 {
	return rt.Run(func(vp *VProc) {
		for v := 0; v < rt.Cfg.NumVProcs; v++ {
			vp.Spawn(func(wvp *VProc, _ Env) {
				for i := 0; i < iters; i++ {
					s := wvp.PushRoot(wvp.AllocRawN(32))
					if i%4 == 0 {
						wvp.Promote(wvp.Root(s))
					}
					wvp.Compute(500)
					wvp.PopRoots(1)
				}
			})
		}
	})
}

// TestCrashFaultDeterministic: a crash storm perturbs the run but keeps it
// bit-deterministic, the heap verifier stays clean (retired heaps are
// adopted and repaired by the surviving leader), and the run still exercises
// global collections after the kills. Several seeds vary where the crash
// instants land relative to the stop-the-world protocol — including inside
// a pending collection's entry rendezvous.
func TestCrashFaultDeterministic(t *testing.T) {
	const (
		nv      = 8
		iters   = 500
		crashes = 3
	)
	for seed := uint64(1); seed <= 5; seed++ {
		run := func() (int64, VPStats, RTStats) {
			rt := MustNewRuntime(stressConfig(t, nv))
			rt.InstallFaults(RandomCrashPlan(seed, nv, 1, crashes, 150_000))
			elapsed := crashTestWorkload(rt, iters)
			if err := rt.VerifyHeap(); err != nil {
				t.Fatalf("seed %d: heap invariants after crash storm: %v", seed, err)
			}
			return elapsed, rt.TotalStats(), rt.Stats
		}
		e1, s1, g1 := run()
		e2, s2, g2 := run()
		if e1 != e2 || s1 != s2 || g1 != g2 {
			t.Errorf("seed %d: crashed reruns diverged:\n  %d ns %+v %+v\n  %d ns %+v %+v",
				seed, e1, s1, g1, e2, s2, g2)
		}
		if s1.Crashes != crashes {
			t.Errorf("seed %d: Crashes = %d, want %d", seed, s1.Crashes, crashes)
		}
		if g1.GlobalGCs == 0 {
			t.Errorf("seed %d: no global collections — crash storm not exercising the barrier protocol", seed)
		}
	}
}

// TestCrashLostWorkAccounting: every spawned task is either run or reported
// lost — never both, never neither — and Join on a lost task returns with
// Task.Lost set and a nil result. The runtime quiesces exactly (Run
// returning proves rt.outstanding reached zero with no leak).
func TestCrashLostWorkAccounting(t *testing.T) {
	const tasks = 32
	rt := MustNewRuntime(stressConfig(t, 8))
	rt.InstallFaults((&FaultPlan{}).CrashAt(3, 40_000).CrashNodeAt(1, 60_000))
	spawned := make([]*Task, 0, tasks)
	rt.Run(func(vp *VProc) {
		for i := 0; i < tasks; i++ {
			spawned = append(spawned, vp.Spawn(func(wvp *VProc, _ Env) {
				for j := 0; j < 120; j++ {
					wvp.PushRoot(wvp.AllocRawN(24))
					wvp.Compute(400)
					wvp.PopRoots(1)
				}
			}))
		}
		for _, tk := range spawned {
			vp.Join(tk)
		}
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants after crashes: %v", err)
	}
	s := rt.TotalStats()
	lost := 0
	for i, tk := range spawned {
		if !tk.Done() {
			t.Errorf("task %d neither ran nor was reported lost", i)
		}
		if tk.Lost() {
			lost++
			if tk.Result() != 0 {
				t.Errorf("lost task %d has result %#x, want 0", i, tk.Result())
			}
		}
	}
	if int(s.LostTasks) != lost {
		t.Errorf("LostTasks = %d, but %d spawned tasks report Lost", s.LostTasks, lost)
	}
	// Every task (plus the entry task) was run exactly once or lost exactly
	// once; crashes mid-execution must not double-count.
	if got := int(s.TasksRun) + lost; got != tasks+1 {
		t.Errorf("TasksRun + lost = %d, want %d", got, tasks+1)
	}
	if s.Crashes != 3 { // vproc 3 plus node 1's two vprocs
		t.Errorf("Crashes = %d, want 3", s.Crashes)
	}
}

// TestChannelCrashStatus: channels owned by a crashed vproc fail over
// through the close-as-status protocol — later sends observe SendCrashed
// (distinct from SendClosed) and parked receive continuations wake exactly
// once with a nil message.
func TestChannelCrashStatus(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	reqs := rt.NewChannel()
	replies := rt.NewChannel()
	reqs.SetOwner(rt.VProcs[1])
	replies.SetOwner(rt.VProcs[1])
	rt.InstallFaults((&FaultPlan{}).CrashAt(1, 50_000))

	var nilWakes, okSends int
	var firstFail SendStatus = -1
	rt.Run(func(vp *VProc) {
		// A continuation parked on an owned channel that never delivers: the
		// only way it can resolve (and the run quiesce) is the crash close.
		replies.RecvThen(vp, nil, func(_ *VProc, _ Env, msg heap.Addr) {
			if msg != 0 {
				t.Errorf("crash wakeup delivered message %#x, want nil", msg)
			}
			nilWakes++
		})
		for i := 0; i < 10_000; i++ {
			s := vp.PushRoot(vp.AllocRawN(4))
			st := reqs.Send(vp, s)
			vp.PopRoots(1)
			if st != SendOK {
				firstFail = st
				break
			}
			okSends++
			vp.Compute(2_000)
		}
	})
	if firstFail != SendCrashed {
		t.Errorf("first failing send reported %v, want %v", firstFail, SendCrashed)
	}
	if okSends == 0 {
		t.Error("no send succeeded before the crash instant")
	}
	if nilWakes != 1 {
		t.Errorf("parked continuation woke %d times, want exactly 1", nilWakes)
	}
	if !reqs.Crashed() || !reqs.Closed() {
		t.Error("owned channel not retired as crashed+closed")
	}
	if !rt.VProcs[1].Crashed() {
		t.Error("vproc 1 not marked crashed")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants after crash: %v", err)
	}
}

// TestCrashWakesBoundedFullSender mirrors PR 6's TrySend-races-Close test
// for the crash path: a sender blocked on a full bounded mailbox whose owner
// crashes mid-wait must wake with SendCrashed instead of hanging in the
// capacity loop.
func TestCrashWakesBoundedFullSender(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	mb := rt.NewMailbox(1)
	mb.SetOwner(rt.VProcs[1])
	rt.InstallFaults((&FaultPlan{}).CrashAt(1, 50_000))

	var blockedStatus SendStatus = -1
	rt.Run(func(vp *VProc) {
		s := vp.PushRoot(vp.AllocRawN(4))
		if st := mb.Send(vp, s); st != SendOK {
			t.Fatalf("first send on empty mailbox: %v", st)
		}
		vp.SetRoot(s, vp.AllocRawN(4))
		// The mailbox is full and has no receiver: this blocks in virtual
		// time until the owner's crash closes the channel.
		blockedStatus = mb.Send(vp, s)
		vp.PopRoots(1)
	})
	if blockedStatus != SendCrashed {
		t.Errorf("blocked sender woke with %v, want %v", blockedStatus, SendCrashed)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants after crash: %v", err)
	}
}

// TestCloseRacesCrash: an orderly Close scheduled at the same virtual
// instant as the owner's crash resolves deterministically — the status is
// delivered to parked receivers exactly once, and reruns agree bit-for-bit
// on which path won (observable through Channel.Crashed).
func TestCloseRacesCrash(t *testing.T) {
	const at = 50_000
	run := func() (wakes int, crashedWon bool, stats VPStats) {
		rt := MustNewRuntime(stressConfig(t, 2))
		ch := rt.NewChannel()
		ch.SetOwner(rt.VProcs[1])
		rt.InstallFaults((&FaultPlan{}).CloseAt(0, at, ch).CrashAt(1, at))
		rt.Run(func(vp *VProc) {
			ch.RecvThen(vp, nil, func(_ *VProc, _ Env, msg heap.Addr) {
				if msg != 0 {
					t.Errorf("close/crash race delivered message %#x", msg)
				}
				wakes++
			})
		})
		if err := rt.VerifyHeap(); err != nil {
			t.Fatalf("heap invariants after close/crash race: %v", err)
		}
		return wakes, ch.Crashed(), rt.TotalStats()
	}
	w1, c1, s1 := run()
	w2, c2, s2 := run()
	if w1 != 1 {
		t.Errorf("parked continuation woke %d times, want exactly 1", w1)
	}
	if w1 != w2 || c1 != c2 || s1 != s2 {
		t.Errorf("close/crash race not deterministic: (%d,%v,%+v) vs (%d,%v,%+v)", w1, c1, s1, w2, c2, s2)
	}
}

// TestCrashBoardKillRack: a correlated board kill on the rack topology takes
// out every vproc on the board in one event, survivors finish the workload,
// and the global-GC barrier protocol completes with the shrunken cohort.
func TestCrashBoardKillRack(t *testing.T) {
	topo := numa.Rack256()
	cfg := DefaultConfig(topo, 32)
	cfg.LocalHeapWords = 2048
	cfg.ChunkWords = 512
	cfg.GlobalTriggerWords = 16 * 512
	cfg.Debug = true
	rt := MustNewRuntime(cfg)
	// Count the board-1 vprocs so the assertion tracks the placement policy
	// rather than hard-coding it.
	onBoard := 0
	for _, vp := range rt.VProcs {
		if topo.BoardOfNode(vp.Node) == 1 {
			onBoard++
		}
	}
	if onBoard == 0 || onBoard == len(rt.VProcs) {
		t.Fatalf("placement puts %d of %d vprocs on board 1 — board kill would be trivial", onBoard, len(rt.VProcs))
	}
	rt.InstallFaults((&FaultPlan{}).CrashBoardAt(1, 60_000))
	crashTestWorkload(rt, 200)
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants after board kill: %v", err)
	}
	s := rt.TotalStats()
	if s.Crashes != onBoard {
		t.Errorf("Crashes = %d, want %d (every vproc on board 1)", s.Crashes, onBoard)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Error("no global collections — board kill not exercising the shrunken barrier")
	}
}

// crashRun is what a crash test compares across reruns: the makespan, the
// totals, the runtime statistics and every GC event.
type crashRun struct {
	elapsed int64
	total   VPStats
	stats   RTStats
	events  []GCEvent
}

// rerunCrash runs a crash scenario twice on concurrentStressConfig(t, nv),
// checks the heap after each run and that the reruns agree, and returns the
// first run. A run that has not returned after a minute fails the test: a
// collection cycle nobody can end keeps the survivors in its windows or
// sweeps for ever.
func rerunCrash(t *testing.T, nv int, scenario func(rt *Runtime) int64) crashRun {
	t.Helper()
	var runs [2]crashRun
	for i := range runs {
		rt := MustNewRuntime(concurrentStressConfig(t, nv))
		r := &runs[i]
		rt.SetTracer(func(ev GCEvent) { r.events = append(r.events, ev) })
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.elapsed = scenario(rt)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("the run did not return")
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Fatalf("heap invariants after the crash: %v", err)
		}
		r.total, r.stats = rt.TotalStats(), rt.Stats
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("crashed reruns diverged:\n  %d ns %+v %+v\n  %d ns %+v %+v",
			runs[0].elapsed, runs[0].total, runs[0].stats, runs[1].elapsed, runs[1].total, runs[1].stats)
	}
	return runs[0]
}

// TestCrashLeaderMidMark: vproc 0 leads a concurrent cycle and crashes in the
// mark, inside its entry task, with gray data in its current chunk: the
// leadership passes to vproc 1, the dead chunk goes to the scan lists, and
// the entry task is reported lost. Idle vproc 1 then finishes the mark, the
// cycle terminates, and Run returns.
func TestCrashLeaderMidMark(t *testing.T) {
	var crashedAt int64
	r := rerunCrash(t, 2, func(rt *Runtime) int64 {
		// Due from the start, the crash runs at vproc 0's first
		// checkPreempt: the SleepFor below.
		rt.InstallFaults((&FaultPlan{}).CrashAt(0, 1))
		return rt.Run(func(vp *VProc) {
			// A tree larger than one assist's budget, global and white in
			// the next cycle: the window forwards its root into vproc 0's
			// current chunk, and the assist before the crash leaves some of
			// it gray there.
			vp.PromoteRoot(vp.PushRoot(buildTree(vp, 7, 1)))
			for !rt.global.pending {
				vp.PromoteRoot(vp.PushRoot(buildTree(vp, 4, 2)))
				vp.PopRoots(1)
			}
			if rt.global.leader != vp.ID {
				t.Errorf("vproc %d leads the cycle, want vproc 0", rt.global.leader)
			}
			crashedAt = vp.Now()
			vp.SleepFor(1_000)
			t.Error("vproc 0 outlived its crash")
		})
	})
	if r.total.Crashes != 1 || r.total.LostTasks != 1 {
		t.Errorf("crashes %d, lost tasks %d; want 1, 1 (the entry task)", r.total.Crashes, r.total.LostTasks)
	}
	terminated := false
	for _, ev := range r.events {
		terminated = terminated || ev.Kind == EvTermination && ev.At > crashedAt && ev.VProc == 1
	}
	if !terminated {
		t.Errorf("the cycle in flight at the crash did not terminate under vproc 1: %+v", r.events)
	}
}

// TestCrashHandsResultToOwner: a thief finishes a stolen SpawnResult and
// crashes before its owner joins it. The result passes to the owner's
// result set, so the global collection between the crash and JoinResult
// forwards it: the owner joins an address in the live heap and reads the
// whole tree.
func TestCrashHandsResultToOwner(t *testing.T) {
	var want, got uint64
	rerunCrash(t, 2, func(rt *Runtime) int64 {
		rt.InstallFaults((&FaultPlan{}).CrashAt(1, 60_000))
		return rt.Run(func(vp *VProc) {
			task := vp.SpawnResult(func(tvp *VProc, _ Env) heap.Addr {
				a := buildTree(tvp, 4, 7)
				want = checksumTree(tvp, a)
				return a
			})
			vp.Compute(100_000) // vproc 1 steals the task, finishes it and crashes
			if !rt.VProcs[1].Crashed() || !task.Done() || task.Lost() {
				t.Errorf("at the join: thief crashed %v, task done %v, lost %v; want true, true, false",
					rt.VProcs[1].Crashed(), task.Done(), task.Lost())
			}
			for gcs := rt.Stats.GlobalGCs; rt.Stats.GlobalGCs == gcs; {
				vp.PromoteRoot(vp.PushRoot(buildTree(vp, 4, 2)))
				vp.PopRoots(1)
			}
			r := vp.JoinResult(task)
			if !slices.Contains(rt.Chunks.Active(), rt.Chunks.ChunkOf(r.RegionID())) {
				t.Errorf("the joined result %v lies outside the live chunks", r)
			}
			got = checksumTree(vp, r)
		})
	})
	if got != want {
		t.Errorf("joined result checksum %#x, want %#x", got, want)
	}
}
