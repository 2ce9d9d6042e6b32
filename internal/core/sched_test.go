package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
)

func TestDequeOrdering(t *testing.T) {
	var d ring[*Task]
	t1, t2, t3 := &Task{}, &Task{}, &Task{}
	d.pushBottom(t1)
	d.pushBottom(t2)
	d.pushBottom(t3)
	// Owner pops LIFO.
	if d.popBottom() != t3 {
		t.Error("popBottom should return the newest task")
	}
	// Thieves steal FIFO (the oldest — typically largest — task).
	if d.popTop() != t1 {
		t.Error("popTop should return the oldest task")
	}
	if d.size() != 1 {
		t.Errorf("size = %d, want 1", d.size())
	}
	if !d.remove(t2) {
		t.Error("remove failed for a queued task")
	}
	if d.remove(t2) {
		t.Error("remove succeeded twice")
	}
	if d.popBottom() != nil || d.popTop() != nil {
		t.Error("empty deque should return nil")
	}
}

func TestForkJoinRunsBothSides(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	var left, right bool
	rt.Run(func(vp *VProc) {
		vp.ForkJoin(
			func(vp *VProc, _ Env) { left = true; vp.Compute(100) },
			func(vp *VProc, _ Env) { right = true; vp.Compute(100) },
			nil, nil)
	})
	if !left || !right {
		t.Errorf("forkjoin: left=%v right=%v", left, right)
	}
}

func TestJoinResultInlineStaysLocal(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		task := vp.SpawnResult(func(vp *VProc, _ Env) heap.Addr {
			return vp.AllocRaw([]uint64{77})
		})
		r := vp.JoinResult(task)
		// Ran inline on the owner: the result must still be in the
		// owner's local heap (no gratuitous promotion).
		if rt.Space.Region(r.RegionID()).Kind != heap.RegionLocal {
			t.Error("inline task result was promoted")
		}
		rs := vp.PushRoot(r)
		if vp.LoadWord(vp.Root(rs), 0) != 77 {
			t.Error("result payload wrong")
		}
		vp.PopRoots(1)
	})
}

func TestJoinResultStolenIsPromoted(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	var stolen bool
	rt.Run(func(vp *VProc) {
		task := vp.SpawnResult(func(tvp *VProc, _ Env) heap.Addr {
			stolen = tvp.ID != 0
			return tvp.AllocRaw([]uint64{88})
		})
		vp.Compute(1_000_000) // give vproc 1 time to steal
		r := vp.JoinResult(task)
		rs := vp.PushRoot(r)
		if vp.LoadWord(vp.Root(rs), 0) != 88 {
			t.Error("result payload wrong")
		}
		if stolen && rt.Space.Region(vp.Resolve(vp.Root(rs)).RegionID()).Kind != heap.RegionChunk {
			t.Error("stolen task result was not promoted")
		}
		vp.PopRoots(1)
	})
	if !stolen {
		t.Skip("scheduler kept the task local; promotion path not exercised")
	}
}

func TestResultSurvivesExecutorGC(t *testing.T) {
	// A completed-but-unjoined result must be a GC root of its executor.
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		task := vp.SpawnResult(func(vp *VProc, _ Env) heap.Addr {
			return vp.AllocRaw([]uint64{4242})
		})
		// Run it inline via Join, then churn before reading the result.
		vp.Join(task)
		churn(vp, 2000, 4)
		r := vp.JoinResult(task)
		rs := vp.PushRoot(r)
		if got := vp.LoadWord(vp.Root(rs), 0); got != 4242 {
			t.Errorf("result after churn = %d, want 4242", got)
		}
		vp.PopRoots(1)
	})
}

func TestMakeEnv(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		a := vp.AllocRaw([]uint64{5})
		env := vp.MakeEnv(a)
		churn(vp, 1000, 4) // move a via collections
		got := vp.LoadWord(env.Get(vp, 0), 0)
		if got != 5 {
			t.Errorf("env value after GC = %d, want 5", got)
		}
		env.Set(vp, 0, 0)
		if env.Get(vp, 0) != 0 {
			t.Error("env.Set did not stick")
		}
		vp.PopRoots(1)
	})
}

// TestEntryTaskEndsLikeATask: Run starts the entry as a task, so it runs with
// itself alone on vproc 0's running stack, is counted once in TasksRun, and
// the root it leaves pushed is popped when it returns.
func TestEntryTaskEndsLikeATask(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	var running []*Task
	rt.Run(func(vp *VProc) {
		vp.PushRoot(vp.AllocRaw([]uint64{5}))
		running = slices.Clone(vp.running)
	})
	if roots := rt.VProcs[0].roots; len(roots) != 0 {
		t.Errorf("vproc 0's root stack after the entry returned: %v, want empty", roots)
	}
	if len(running) != 1 || !running[0].Done() {
		t.Errorf("the entry ran with running stack %v, want itself alone", running)
	}
	if s := rt.TotalStats(); s.TasksRun != 1 {
		t.Errorf("TasksRun = %d, want 1 (the entry)", s.TasksRun)
	}
}

func TestEnvBoundsChecks(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		env := vp.MakeEnv(0)
		defer vp.PopRoots(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range Env.Get")
			}
		}()
		env.Get(vp, 1)
	})
}

func TestEagerPromotionAblation(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.LazyPromotion = false
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		a := buildTree(vp, 3, 1)
		s := vp.PushRoot(a)
		task := vp.Spawn(func(vp *VProc, env Env) {
			// Even unstolen, eager promotion moved the environment
			// to the global heap at spawn time.
			r := vp.rt.Space.Region(vp.Resolve(env.Get(vp, 0)).RegionID())
			if r.Kind != heap.RegionChunk {
				t.Error("eager promotion did not promote at spawn")
			}
		}, vp.Root(s))
		vp.Join(task)
		vp.PopRoots(1)
	})
	if rt.TotalStats().PromotedWords == 0 {
		t.Error("eager promotion promoted nothing")
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 4))
	rt.Run(func(vp *VProc) {
		for i := 0; i < 16; i++ {
			vp.Spawn(func(vp *VProc, _ Env) {
				churn(vp, 200, 4)
			})
		}
	})
	total := rt.TotalStats()
	if total.TasksRun != 17 { // 16 + the entry task
		t.Errorf("TasksRun = %d, want 17", total.TasksRun)
	}
	if total.AllocWords == 0 || total.MinorGCs == 0 {
		t.Error("expected allocation and minor GCs")
	}
}

func TestDequeRingWrap(t *testing.T) {
	var d ring[*Task]
	var ts []*Task
	for i := 0; i < 20; i++ {
		ts = append(ts, &Task{})
	}
	// Interleave pushes and top-pops so head walks around the ring across
	// several growths.
	next := 0
	var popped []*Task
	for round := 0; round < 6; round++ {
		for i := 0; i < 3 && next < len(ts); i++ {
			d.pushBottom(ts[next])
			next++
		}
		if p := d.popTop(); p != nil {
			popped = append(popped, p)
		}
	}
	for p := d.popTop(); p != nil; p = d.popTop() {
		popped = append(popped, p)
	}
	if len(popped) != next {
		t.Fatalf("popped %d tasks, pushed %d", len(popped), next)
	}
	// FIFO across the whole sequence: top-pops must come out in push order.
	for i, p := range popped {
		if p != ts[i] {
			t.Fatalf("popTop order broken at %d", i)
		}
	}
	if d.size() != 0 {
		t.Fatalf("size = %d after draining, want 0", d.size())
	}
}

func TestDequeRemoveAcrossWrap(t *testing.T) {
	var d ring[*Task]
	var ts []*Task
	for i := 0; i < 8; i++ {
		ts = append(ts, &Task{})
	}
	for _, task := range ts[:6] {
		d.pushBottom(task)
	}
	// Advance head so the live window wraps the backing array.
	d.popTop()
	d.popTop()
	d.pushBottom(ts[6])
	d.pushBottom(ts[7])
	if !d.remove(ts[4]) {
		t.Fatal("remove failed for queued task")
	}
	if d.remove(ts[0]) {
		t.Fatal("remove succeeded for already-popped task")
	}
	want := []*Task{ts[2], ts[3], ts[5], ts[6], ts[7]}
	if d.size() != len(want) {
		t.Fatalf("size = %d, want %d", d.size(), len(want))
	}
	for i, w := range want {
		if got := d.popTop(); got != w {
			t.Fatalf("popTop %d: wrong task (order not preserved); want index %d", i, i)
		}
	}
}

// TestWaiterRingSkipsClaimed: the channels' waiter queue is the same ring as
// the work deque, popped FIFO through popLive, which discards entries whose
// rendezvous was claimed elsewhere (another channel of a select, a timer) or
// recycled since (its generation moved on, though the new wait is unclaimed)
// — at the front, in the middle and across a wrap and a growth of the ring.
func TestWaiterRingSkipsClaimed(t *testing.T) {
	ch := &Channel{}
	rs := make([]*rendezvous, 24)
	for i := range rs {
		rs[i] = &rendezvous{}
	}
	// Walk head around the backing array, then grow past its first size.
	for _, r := range rs[:6] {
		ch.waiters.pushBottom(r.waiter(0))
	}
	for _, want := range rs[:4] {
		if got := popLive(&ch.waiters); got.r != want {
			t.Fatal("popLive is not FIFO")
		}
	}
	for i, r := range rs[6:] {
		ch.waiters.pushBottom(r.waiter(i))
	}
	if ch.waiters.size() != 20 {
		t.Fatalf("size = %d, want 20", ch.waiters.size())
	}
	// Claim the front, a middle run and the back, and recycle the
	// rendezvous of two entries between them.
	stale := []int{4, 5, 9, 10, 11, 14, 17, 23}
	for _, i := range stale {
		if i == 14 || i == 17 {
			rs[i].gen++
		} else {
			rs[i].claimed = true
		}
	}
	for i := 6; i < 23; i++ {
		if slices.Contains(stale, i) {
			continue
		}
		if got := popLive(&ch.waiters); got.r != rs[i] || int(got.which) != i-6 {
			t.Fatalf("popLive returned which %d, want rendezvous %d with which %d", got.which, i, i-6)
		}
	}
	if got := popLive(&ch.waiters); got.r != nil {
		t.Fatal("popLive returned the claimed tail entry")
	}
	if ch.waiters.size() != 0 {
		t.Fatalf("size = %d after draining, want 0: claimed entries must be discarded", ch.waiters.size())
	}
	for _, w := range ch.waiters.buf {
		if w.r != nil {
			t.Fatal("a popped entry is still pinned in the backing array")
		}
	}
}

// TestTotalStatsSumsEveryField: every VPStats field of two vprocs is set, by
// reflection, to a value of its own, and every field of the total must be the
// two added — so a counter added to VPStats is summed (or fails here) without
// anyone remembering to list it.
func TestTotalStatsSumsEveryField(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	typ := reflect.TypeOf(VPStats{})
	for v, vp := range rt.VProcs {
		s := reflect.ValueOf(&vp.Stats).Elem()
		for i := 0; i < typ.NumField(); i++ {
			s.Field(i).SetInt(int64((v+1)*1000 + i))
		}
	}
	total := reflect.ValueOf(rt.TotalStats())
	for i := 0; i < typ.NumField(); i++ {
		if got, want := total.Field(i).Int(), int64(1000+i+2000+i); got != want {
			t.Errorf("TotalStats().%s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
}
