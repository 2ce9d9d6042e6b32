package core

import (
	"testing"

	"repro/internal/heap"
)

// IsProxy reports whether the object at a is a proxy.
func (vp *VProc) IsProxy(a heap.Addr) bool {
	return heap.HeaderID(vp.rt.Space.Header(vp.resolve(a))) == heap.IDProxy
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
	// (middle, last, first) and verify the registry and index stay in
	// sync and the survivors still protect their objects.
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		const n = 16
		proxies := make([]heap.Addr, n)
		for i := 0; i < n; i++ {
			obj := vp.AllocRaw([]uint64{uint64(100 + i)})
			s := vp.PushRoot(obj)
			proxies[i] = vp.NewProxy(s)
			vp.PopRoots(1) // only the proxy roots the object now
		}
		// Promote each proxied object (the owner-side path that calls
		// dropProxy is the cross-vproc one; promotion + deref resolves
		// through the global slot without dropping, so drop explicitly
		// through the registry by simulating resolution).
		order := []int{7, 15, 0, 8, 3, 14, 1}
		for _, i := range order {
			// Force the cross-vproc resolution bookkeeping by hand:
			// promote, record, drop. The promotion bumps into the chunk
			// the proxy may live in, so the payload is taken again after
			// it (heap.Space.Payload).
			local := heap.Addr(vp.rt.Space.Payload(vp.Resolve(proxies[i]))[heap.ProxyLocalSlot])
			g := vp.Promote(local)
			p := vp.rt.Space.Payload(vp.Resolve(proxies[i]))
			p[heap.ProxyGlobalSlot] = uint64(g)
			p[heap.ProxyLocalSlot] = 0
			vp.dropProxy(vp.Resolve(proxies[i]))
		}
		if got := len(vp.proxies); got != n-len(order) {
			t.Fatalf("registry holds %d proxies, want %d", got, n-len(order))
		}
		if got := len(vp.proxyIdx); got != n-len(order) {
			t.Fatalf("index holds %d entries, want %d", got, n-len(order))
		}
		for pa, i := range vp.proxyIdx {
			if vp.proxies[i] != pa {
				t.Fatalf("index entry %v -> %d disagrees with registry %v", pa, i, vp.proxies[i])
			}
		}
		// Survivors must still keep their objects alive through churn.
		churn(vp, 3000, 4)
		for i := 0; i < n; i++ {
			dropped := false
			for _, d := range order {
				if d == i {
					dropped = true
				}
			}
			got := vp.ProxyDeref(proxies[i])
			if vp.LoadWord(got, 0) != uint64(100+i) {
				t.Errorf("proxy %d (dropped=%v): payload %d, want %d", i, dropped, vp.LoadWord(got, 0), 100+i)
			}
		}
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}
