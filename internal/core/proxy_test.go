package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
)

// IsProxy reports whether the object at a is a proxy.
func (vp *VProc) IsProxy(a heap.Addr) bool {
	return heap.HeaderID(vp.rt.Space.Header(vp.Resolve(a))) == heap.IDProxy
}

func TestProxyOwnerDerefStaysLocal(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		obj := vp.AllocRaw([]uint64{11, 22})
		s := vp.PushRoot(obj)
		proxy := vp.NewProxy(s)
		if !vp.IsProxy(proxy) {
			t.Fatal("NewProxy did not produce a proxy object")
		}
		got := vp.ProxyDeref(proxy)
		if rt.Space.Region(got.RegionID()).Kind != heap.RegionLocal {
			t.Error("owner deref should resolve to the local object")
		}
		if vp.LoadWord(got, 0) != 11 {
			t.Error("payload wrong through proxy")
		}
		vp.PopRoots(1)
	})
}

func TestProxyLocalSlotIsGCRoot(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		obj := vp.AllocRaw([]uint64{33})
		s := vp.PushRoot(obj)
		proxy := vp.NewProxy(s)
		vp.PopRoots(1) // only the proxy keeps the object alive now
		churn(vp, 3000, 4)
		got := vp.ProxyDeref(proxy)
		if vp.LoadWord(got, 0) != 33 {
			t.Error("proxied object lost across collections")
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("heap invariants: %v", err)
		}
	})
}

func TestProxyCrossVProcDerefPromotes(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	var crossGlobal, crossRan bool
	rt.Run(func(vp *VProc) {
		obj := vp.AllocRaw([]uint64{55})
		s := vp.PushRoot(obj)
		proxy := vp.NewProxy(s)
		ps := vp.PushRoot(proxy)

		task := vp.Spawn(func(tvp *VProc, env Env) {
			if tvp.ID == 0 {
				return // not stolen; nothing to assert
			}
			crossRan = true
			got := tvp.ProxyDeref(env.Get(tvp, 0))
			crossGlobal = tvp.rt.Space.Region(got.RegionID()).Kind == heap.RegionChunk
			if tvp.LoadWord(got, 0) != 55 {
				t.Error("cross-vproc proxy payload wrong")
			}
		}, vp.Root(ps))
		vp.Compute(1_000_000)
		vp.Join(task)
		vp.PopRoots(2)
	})
	if crossRan && !crossGlobal {
		t.Error("cross-vproc deref did not promote the proxied object")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

func TestProxyAfterUnderlyingPromotion(t *testing.T) {
	// If the proxied object gets promoted for another reason, the
	// owner's deref must follow the forwarding to the global copy, and
	// repeated derefs must agree.
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		obj := vp.AllocRaw([]uint64{77})
		s := vp.PushRoot(obj)
		proxy := vp.NewProxy(s)
		ps := vp.PushRoot(proxy)
		vp.PromoteRoot(s)
		g1 := vp.ProxyDeref(vp.Root(ps))
		g2 := vp.ProxyDeref(vp.Root(ps))
		if g1 != g2 {
			t.Errorf("proxy resolved to different objects: %v vs %v", g1, g2)
		}
		if rt.Space.Region(g2.RegionID()).Kind != heap.RegionChunk {
			t.Error("deref should follow promotion to the global copy")
		}
		if vp.LoadWord(g2, 0) != 77 {
			t.Error("payload wrong after promotion")
		}
		vp.PopRoots(2)
	})
}

func TestMutRefRejectsNonRef(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		raw := vp.AllocRaw([]uint64{1, 2})
		defer func() {
			if recover() == nil {
				t.Error("ReadRef of a non-ref should panic")
			}
		}()
		vp.ReadRef(raw)
	})
}

func TestMutRefSurvivesGlobalGC(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		init := vp.AllocRaw([]uint64{9})
		is := vp.PushRoot(init)
		ref := vp.NewRef(is)
		rs := vp.PushRoot(ref)
		// Force several global collections by promoting garbage trees.
		for i := 0; i < 8; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 500, 6)
		}
		got := vp.ReadRef(vp.Root(rs))
		if vp.LoadWord(got, 0) != 9 {
			t.Error("ref contents lost across global collections")
		}
		vp.PopRoots(2)
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Error("expected global collections during churn")
	}
}

func TestProxyCrossVProcDerefAfterMajorGC(t *testing.T) {
	// A major collection can promote the proxied object before anyone
	// dereferences the proxy, leaving a forwarding pointer in the owner's
	// local heap and (after the slot is forwarded) a global address in the
	// proxy's local slot. A later cross-vproc deref must follow that to
	// the promoted copy instead of re-promoting garbage.
	rt := MustNewRuntime(stressConfig(t, 2))
	var got uint64
	var crossRan, wasGlobal bool
	rt.Run(func(vp *VProc) {
		obj := vp.AllocRaw([]uint64{0xF00D, 0xCAFE})
		s := vp.PushRoot(obj)
		proxy := vp.NewProxy(s)
		vp.PopRoots(1) // the proxy's local slot keeps the object live
		ps := vp.PushRoot(proxy)

		// Drive the owner through majors: the live list grows past the
		// local heap, forcing old data (including the proxied object)
		// into the global heap.
		listSlot := vp.PushRoot(0)
		for i := uint64(1); i <= 400; i++ {
			pushList(vp, listSlot, i)
			if i%10 == 0 {
				churn(vp, 40, 4)
			}
		}
		if vp.Stats.MajorGCs == 0 {
			t.Error("expected major collections")
		}

		task := vp.Spawn(func(tvp *VProc, env Env) {
			if tvp.ID == 0 {
				return // not stolen; nothing to assert
			}
			crossRan = true
			a := tvp.ProxyDeref(env.Get(tvp, 0))
			wasGlobal = tvp.rt.Space.Region(a.RegionID()).Kind == heap.RegionChunk
			got = tvp.LoadWord(a, 0)
		}, vp.Root(ps))
		vp.Compute(1_000_000)
		vp.Join(task)
		vp.PopRoots(2)
	})
	if crossRan {
		if got != 0xF00D {
			t.Errorf("payload through proxy after major GC = %#x, want 0xF00D", got)
		}
		if !wasGlobal {
			t.Error("deref should resolve to the (already promoted) global copy")
		}
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

func TestDropProxySwapRemoveConsistency(t *testing.T) {
	// Resolve proxies in an order that exercises every swap-remove case
	// (middle, last, first) and verify the registry and the slots its
	// proxies carry stay in sync and the survivors still protect their
	// objects. Five pending messages register first, and closing their
	// channel drops them last. In the second case a global collection
	// moves every registered proxy before any drop: the slots travel with
	// the copies.
	for _, moved := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", moved), func(t *testing.T) {
			rt := MustNewRuntime(stressConfig(t, 1))
			rt.Run(func(vp *VProc) { dropProxies(t, vp, moved) })
			if err := rt.VerifyHeap(); err != nil {
				t.Errorf("heap invariants: %v", err)
			}
		})
	}
}

func dropProxies(t *testing.T, vp *VProc, moved bool) {
	const pending, n = 5, 16
	ch := vp.rt.NewChannel()
	for i := 0; i < pending; i++ {
		ch.Send(vp, vp.PushRoot(vp.AllocRaw([]uint64{uint64(i)})))
		vp.PopRoots(1)
	}
	proxies := make([]heap.Addr, n)
	for i := 0; i < n; i++ {
		obj := vp.AllocRaw([]uint64{uint64(100 + i)})
		s := vp.PushRoot(obj)
		proxies[i] = vp.NewProxy(s)
		vp.PopRoots(1) // only the proxy roots the object now
	}
	if moved {
		before := slices.Clone(vp.proxies)
		for gcs := vp.rt.Stats.GlobalGCs; vp.rt.Stats.GlobalGCs == gcs; {
			vp.PromoteRoot(vp.PushRoot(buildTree(vp, 4, 2)))
			vp.PopRoots(1)
		}
		for i, pa := range vp.proxies {
			if pa == before[i] {
				t.Fatalf("registry entry %d (%v) did not move in the global collection", i, pa)
			}
		}
		copy(proxies, vp.proxies[pending:]) // the old addresses are released
	}
	order := []int{7, 14, 0, 8, 3, 15, 1}
	cases := map[string]bool{}
	for _, i := range order {
		// Force the cross-vproc resolution bookkeeping by hand: promote,
		// record, drop. The promotion bumps into the chunk the proxy may
		// live in, so the payload is taken again after it
		// (heap.Space.Payload).
		local := heap.Addr(vp.rt.Space.Payload(vp.Resolve(proxies[i]))[heap.ProxyLocalSlot])
		g := vp.Promote(local)
		pa := vp.Resolve(proxies[i])
		p := vp.rt.Space.Payload(pa)
		p[heap.ProxyGlobalSlot] = uint64(g)
		p[heap.ProxyLocalSlot] = 0
		switch heap.ProxySlot(p) {
		case 0:
			cases["first"] = true
		case len(vp.proxies) - 1:
			cases["last"] = true
		default:
			cases["middle"] = true
		}
		vp.dropProxy(pa)
		if heap.ProxySlot(vp.rt.Space.Payload(pa)) != -1 {
			t.Fatalf("dropped proxy %d still reads registered", i)
		}
	}
	msgs := ch.PendingProxies()
	if len(msgs) != pending || heap.ProxySlot(vp.rt.Space.Payload(msgs[0])) != 0 {
		t.Fatalf("want %d pending messages, the first at registry slot 0", pending)
	}
	cases["first"] = true // Close drops msgs[0] from slot 0
	ch.Close()
	if len(cases) != 3 {
		t.Errorf("swap-remove cases exercised: %v, want first, last and middle", cases)
	}
	for _, pa := range msgs {
		if heap.ProxySlot(vp.rt.Space.Payload(pa)) != -1 {
			t.Errorf("closed channel's proxy %v still reads registered", pa)
		}
	}
	if got := len(vp.proxies); got != n-len(order) {
		t.Fatalf("registry holds %d proxies, want %d", got, n-len(order))
	}
	for i, pa := range vp.proxies {
		if got := heap.ProxySlot(vp.rt.Space.Payload(pa)); got != i {
			t.Fatalf("registry entry %d (%v) carries slot %d", i, pa, got)
		}
	}
	// Survivors must still keep their objects alive through churn.
	churn(vp, 3000, 4)
	for i := 0; i < n; i++ {
		got := vp.ProxyDeref(proxies[i])
		if vp.LoadWord(got, 0) != uint64(100+i) {
			t.Errorf("proxy %d (dropped=%v): payload %d, want %d", i, slices.Contains(order, i), vp.LoadWord(got, 0), 100+i)
		}
	}
}

// TestProxyCostPromotionDeclinesUntouched drives a cross-vproc proxy's
// consumption in cost form (consumeOp.Step with direct false) over three
// objects of the owner's: a raw object the thief's chunk has room for, a
// vector, and a raw object the chunk has no room left for. The first promotes
// in cost form; the other two must decline at the promotion, touching
// nothing — the op's phase, the heap's words, the owner's heap lock,
// localGCActive and both vprocs' statistics — and its direct turns must then
// finish each exactly as ProxyDeref does on a twin runtime: the same address,
// clock, promotion statistics and GC events.
func TestProxyCostPromotionDeclinesUntouched(t *testing.T) {
	const bigWords = 200
	type deref struct {
		addr            heap.Addr
		now, promoWords int64
		promos          int
		declined        bool
	}
	// snapshot is what a declining step must leave as it found it.
	type snapshot struct {
		phase      int8
		local      [2][]uint64 // the owner's old-area and nursery windows
		chunk      []uint64    // the thief's current chunk
		top        int
		busy       bool
		active     int
		own, thief VPStats
	}
	run := func(cost bool) (derefs []deref, events []GCEvent, declines StepDeclines) {
		rt := MustNewRuntime(stressConfig(t, 2))
		rt.SetTracer(func(ev GCEvent) { events = append(events, ev) })
		owner := rt.VProcs[0]
		snap := func(o *consumeOp, tvp *VProc) snapshot {
			r := owner.Local.Region
			c := tvp.curChunk
			return snapshot{o.phase, [2][]uint64{slices.Clone(r.Old), slices.Clone(r.Words)},
				slices.Clone(c.Region.Words), c.Top, owner.heapBusy, rt.localGCActive, owner.Stats, tvp.Stats}
		}
		finish := func(tvp *VProc, a heap.Addr, declined bool) deref {
			return deref{a, tvp.Now(), tvp.Stats.PromotedWords, tvp.Stats.Promotions, declined}
		}
		resolve := func(tvp *VProc, proxy heap.Addr) deref {
			if !cost {
				return finish(tvp, tvp.ProxyDeref(proxy), false)
			}
			o := consumeOp{proxy: proxy, phase: conDeref}
			for {
				before := snap(&o, tvp)
				d, s := o.Step(tvp, false)
				switch s {
				case StepCharge:
					tvp.advance(d)
					continue
				case StepDecline:
					if after := snap(&o, tvp); !reflect.DeepEqual(before, after) {
						// Stop the run: what the step left behind (a held
						// heap lock) can keep the owner waiting forever.
						panic(fmt.Sprintf("the declining step touched state:\n  before %+v\n  after  %+v", before, after))
					}
					for !tvp.directTurn(o.Step(tvp, true)) {
					}
					return finish(tvp, o.msg, true)
				}
				return finish(tvp, o.msg, false)
			}
		}
		stolen := false
		rt.Run(func(vp *VProc) {
			fits := vp.PushRoot(vp.AllocRaw([]uint64{0xF1, 0x75}))
			leaf := vp.PushRoot(vp.AllocRaw([]uint64{0x1EAF}))
			vec := vp.PushRoot(vp.AllocVector([]int{leaf}))
			big := vp.PushRoot(vp.AllocRawN(bigWords))
			var proxies []heap.Addr
			for _, s := range []int{fits, vec, big} {
				proxies = append(proxies, vp.NewProxy(s))
			}
			task := vp.Spawn(func(tvp *VProc, env Env) {
				if tvp.ID == 0 {
					return
				}
				stolen = true
				// The thief takes a chunk, so that the first object fits it.
				tvp.Promote(tvp.AllocRaw([]uint64{1}))
				derefs = append(derefs, resolve(tvp, env.Get(tvp, 0)), resolve(tvp, env.Get(tvp, 1)))
				// Fill the chunk until the big object no longer fits.
				for tvp.chunkRoom(bigWords) {
					tvp.Promote(tvp.AllocRawN(50))
				}
				derefs = append(derefs, resolve(tvp, env.Get(tvp, 2)))
			}, proxies...)
			vp.Compute(1_000_000)
			vp.Join(task)
			vp.PopRoots(4)
		})
		if !stolen {
			t.Fatal("vproc 1 did not steal the task")
		}
		return derefs, events, rt.StepDeclines()
	}
	direct, directEvents, _ := run(false)
	cost, costEvents, declines := run(true)
	var declined []bool
	for i := range cost {
		declined = append(declined, cost[i].declined)
		cost[i].declined = false
	}
	if !slices.Equal(declined, []bool{false, true, true}) || declines.Promote != 2 {
		t.Errorf("cost-form consumptions declined %v, %d promotion declines; want the vector's and the big object's only", declined, declines.Promote)
	}
	if !slices.Equal(cost, direct) {
		t.Errorf("cost form and its direct rest finished unlike ProxyDeref:\n  %+v\n  %+v", cost, direct)
	}
	if !slices.Equal(costEvents, directEvents) {
		t.Errorf("GC events differ from ProxyDeref's:\n  %v\n  %v", costEvents, directEvents)
	}
	promotes := 0
	for _, ev := range costEvents {
		if ev.Kind == EvPromote {
			promotes++
		}
	}
	if promotes < 3+2 {
		t.Errorf("%d promotion events; want the three consumptions' and the fillers'", promotes)
	}
}
