package core

import (
	"testing"

	"repro/internal/heap"
)

// TestGlobalScanSurvivors drives the global scan (globalScanRoots, drainGray)
// through three programs under both collectors: each run must collect globally
// at least once, leave the heap invariants intact (Debug keeps the whole-heap
// verifier on after every phase too), read back every survivor as it was
// built, and replay — a second run of the same configuration produces the
// same makespan, survivors and runtime statistics bit for bit. The concurrent
// collector adds the nursery span of the root walk and the closing window's
// drain.
//
// The second program is the traversal's coverage: every kind of root site
// keeps its object alive, and its crash puts the leader's adoption of a
// retired heap through the same scan. The third holds globalForward to
// copying through the address it resolved (see staleAlias).
func TestGlobalScanSurvivors(t *testing.T) {
	type outcome struct {
		makespan int64
		sum      uint64
		vp       VPStats
		rt       RTStats
	}
	programs := []struct {
		name   string
		vprocs int
		faults *FaultPlan
		// body is the entry task; the function it returns is called once
		// the run is over and yields the checksum of what survived.
		body func(t *testing.T, vp *VProc) func() uint64
	}{
		{"promotion-heavy", 4, nil, promotionHeavy},
		{"every root site", 2, (&FaultPlan{}).CrashAt(1, everyRootSiteCrashAt), everyRootSite},
		{"stale alias of a promoted object", 1, nil, staleAlias},
	}
	for _, prog := range programs {
		run := func(concurrent bool) outcome {
			cfg := stressConfig(t, prog.vprocs)
			cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
			cfg.ConcurrentGlobal = concurrent
			rt := MustNewRuntime(cfg)
			if prog.faults != nil {
				rt.InstallFaults(prog.faults)
			}
			var out outcome
			var sum func() uint64
			out.makespan = rt.Run(func(vp *VProc) { sum = prog.body(t, vp) })
			out.sum = sum()
			out.vp = rt.TotalStats()
			out.rt = rt.Stats
			if rt.Stats.GlobalGCs == 0 {
				t.Fatalf("%s: triggered no global collections; the scan went unexercised", prog.name)
			}
			if err := rt.VerifyHeap(); err != nil {
				t.Errorf("%s (concurrent=%v): heap invariants after the run: %v", prog.name, concurrent, err)
			}
			return out
		}
		for _, concurrent := range []bool{false, true} {
			first := run(concurrent)
			again := run(concurrent)
			if first != again {
				t.Errorf("%s, concurrent=%v: two runs of one configuration diverged:\n first: %+v\n again: %+v",
					prog.name, concurrent, first, again)
			}
		}
	}
}

// promotionHeavy is a promotion-heavy run with spawned (stealable) tasks and
// many global collections.
func promotionHeavy(_ *testing.T, vp *VProc) func() uint64 {
	a := buildTree(vp, 6, 5)
	s := vp.PushRoot(a)
	for i := 0; i < 8; i++ {
		vp.PromoteRoot(s)
		// A stealable churn task per round so queued/stolen
		// environments participate in the root walks.
		task := vp.Spawn(func(vp *VProc, env Env) {
			churn(vp, 400, 5)
		})
		b := buildTree(vp, 6, uint64(i))
		bs := vp.PushRoot(b)
		vp.PromoteRoot(bs)
		vp.PopRoots(1)
		churn(vp, 1200, 6)
		vp.Join(task)
	}
	sum := checksumTree(vp, vp.Root(s))
	vp.PopRoots(1)
	return func() uint64 { return sum }
}

// staleAlias enters a global collection with a root that still names the
// local address of an object promoted a moment ago — its header is a
// forwarding word whose target was condemned with its chunk — next to a root
// holding the promoted copy itself. The scan must evacuate the copy once,
// through the resolved address: both roots end up naming one object. (Under
// the stop-the-world collector the minor collection that precedes the window
// heals the alias first; the concurrent collector's window meets it raw.)
func staleAlias(t *testing.T, vp *VProc) func() uint64 {
	rt := vp.rt
	var alias, copySlot int
	var want uint64
	for i := uint64(0); ; i++ {
		alias = vp.PushRoot(buildTree(vp, 2, i))
		want = checksumTree(vp, vp.Root(alias))
		g := vp.Promote(vp.Root(alias)) // the root keeps the local address
		if rt.global.pending {
			// This promotion's chunk fetch crossed the trigger: the
			// window opens at the next safepoint.
			copySlot = vp.PushRoot(g)
			break
		}
		vp.PopRoots(1)
	}
	for globals := rt.Stats.GlobalGCs; rt.Stats.GlobalGCs == globals; {
		churn(vp, 20, 6)
	}
	a, g := vp.Resolve(vp.Root(alias)), vp.Root(copySlot)
	if a != g {
		t.Errorf("the alias resolves to %v and the promoted copy is at %v: the object was evacuated twice", a, g)
	}
	sum := checksumTree(vp, a)
	if sum != want {
		t.Errorf("promoted tree: checksum %#x, built as %#x", sum, want)
	}
	vp.PopRoots(2)
	return func() uint64 { return sum }
}

// everyRootSiteCrashAt is when vproc 1 dies in everyRootSite: late enough
// that its proxy has been through its owner's own collections first.
const everyRootSiteCrashAt = 200_000

// everyRootSite keeps one distinct tree reachable through nothing but each
// kind of root site — root stack, queued task env, proxy local slot, unjoined
// result, parked receive continuation, parked timer continuation, registered
// global root, and a proxy whose owner crashes — across at least one minor,
// major and global collection (and, for the last, a global collection after
// the crash, whose leader adopts the retired heap), then reads each tree back
// through its site. The checksum is a fold of the ones it read.
func everyRootSite(t *testing.T, vp *VProc) func() uint64 {
	rt := vp.rt
	other := rt.VProcs[1]
	type held struct {
		site      string
		want, got uint64
	}
	var trees []*held
	tree := func(vp *VProc, site string) (heap.Addr, *held) {
		a := buildTree(vp, 3, uint64(10*(len(trees)+1)))
		h := &held{site: site, want: checksumTree(vp, a)}
		trees = append(trees, h)
		return a, h
	}
	// collected reports whether a minor, a major and a global collection
	// have all happened since the sites were set up.
	var minors, majors, globals int
	collected := func() bool {
		return vp.Stats.MinorGCs > minors && vp.Stats.MajorGCs > majors && rt.Stats.GlobalGCs > globals
	}
	read := func(vp *VProc, h *held, a heap.Addr) {
		if !collected() {
			t.Errorf("%s read back before a minor, a major and a global collection had run", h.site)
		}
		h.got = checksumTree(vp, a)
	}

	// Vproc 1 steals this task, mints a proxy for a tree it then drops
	// every other reference to, and keeps collecting until the crash
	// unwinds it. It sleeps between rounds, so it never goes idle and
	// never steals the queued task below.
	var theirs heap.Addr
	var theirTree *held
	vp.Spawn(func(wvp *VProc, _ Env) {
		var a heap.Addr
		a, theirTree = tree(wvp, "crashed owner's proxy")
		theirs = wvp.NewProxy(wvp.PushRoot(a))
		wvp.PopRoots(1)
		for i := 0; i < 1_000_000; i++ {
			churn(wvp, 20, 6)
			wvp.SleepFor(200)
		}
	})
	for theirs == 0 {
		vp.Compute(200)
	}
	theirSlot := vp.PushRoot(theirs)

	a, onStack := tree(vp, "root stack")
	stackSlot := vp.PushRoot(a)

	a, inQueue := tree(vp, "queued task env")
	queued := vp.Spawn(func(vp *VProc, env Env) { read(vp, inQueue, env.Get(vp, 0)) }, a)

	// The root slot ends up holding the proxy, not the tree.
	a, behindProxy := tree(vp, "proxy local slot")
	proxySlot := vp.PushRoot(a)
	vp.SetRoot(proxySlot, vp.NewProxy(proxySlot))

	var asResult *held
	result := vp.SpawnResult(func(vp *VProc, _ Env) heap.Addr {
		var a heap.Addr
		a, asResult = tree(vp, "unjoined result")
		return a
	})
	vp.Join(result) // runs it inline; the result stays registered until JoinResult

	a, parked := tree(vp, "parked receive continuation env")
	ch := rt.NewChannel()
	ch.RecvThen(vp, []heap.Addr{a}, func(vp *VProc, env Env, _ heap.Addr) { read(vp, parked, env.Get(vp, 0)) })

	a, onTimer := tree(vp, "parked timer continuation env")
	vp.AtThen(20*everyRootSiteCrashAt, []heap.Addr{a}, func(vp *VProc, env Env) { read(vp, onTimer, env.Get(vp, 0)) })

	a, pinned := tree(vp, "global root")
	global := vp.Promote(a)
	rt.RegisterGlobalRoot(&global)

	minors, majors, globals = vp.Stats.MinorGCs, vp.Stats.MajorGCs, rt.Stats.GlobalGCs

	// Collect until vproc 1 has crashed, then through two more global
	// collections: whatever cycle was in flight at the crash, and one that
	// started after it.
	round := func(i int) {
		s := vp.PushRoot(buildTree(vp, 6, uint64(i)))
		vp.PromoteRoot(s)
		vp.PopRoots(1)
		churn(vp, 1200, 6)
	}
	i := 0
	for ; !other.Crashed(); i++ {
		round(i)
	}
	if other.Stats.MinorGCs == 0 || rt.Stats.GlobalGCs == globals {
		t.Errorf("vproc 1 crashed after %d minor and %d global collections; its proxy never went through its owner's own walks",
			other.Stats.MinorGCs, rt.Stats.GlobalGCs-globals)
	}
	for atCrash := rt.Stats.GlobalGCs; rt.Stats.GlobalGCs < atCrash+2; i++ {
		round(i)
	}

	read(vp, onStack, vp.Root(stackSlot))
	vp.Join(queued)
	read(vp, behindProxy, vp.ProxyDeref(vp.Root(proxySlot)))
	read(vp, asResult, vp.JoinResult(result))
	read(vp, theirTree, vp.ProxyDeref(vp.Root(theirSlot)))
	read(vp, pinned, global)
	rt.unregisterGlobalRoot(&global)
	// Wake the receive continuation; it and the timer continuation run from
	// the scheduler loop once this entry task returns.
	vp.SetRoot(stackSlot, vp.AllocRaw([]uint64{1}))
	ch.Send(vp, stackSlot)
	vp.PopRoots(3)

	return func() uint64 {
		sum := uint64(1469598103934665603)
		for _, h := range trees {
			if h.got != h.want {
				t.Errorf("tree held by the %s: checksum %#x, built as %#x", h.site, h.got, h.want)
			}
			sum = (sum ^ h.got) * 1099511628211
		}
		return sum
	}
}
