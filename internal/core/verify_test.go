package core

import (
	"strings"
	"testing"

	"repro/internal/heap"
)

// TestDetachedWindowWriteFailsVerifier stores through a Payload slice held
// across a bump that grows the object's window, in a local heap and in a
// chunk. The write lands in the array the window abandoned, so it is lost;
// under Debug VerifyHeap must report it.
func TestDetachedWindowWriteFailsVerifier(t *testing.T) {
	for _, kind := range []string{"local heap", "chunk"} {
		rt := MustNewRuntime(stressConfig(t, 1))
		rt.Run(func(vp *VProc) {
			// The first step of a 2,048-word local heap is 16 words, of a
			// 512-word chunk 8; the second allocation outgrows it.
			alloc := func(n int) heap.Addr { return vp.AllocRawN(n) }
			if kind == "chunk" {
				alloc = vp.AllocGlobalVectorN
			}
			a := alloc(1)
			stale := rt.Space.Payload(a)
			committed := len(rt.Space.RegionOf(a).Words)
			alloc(40)
			if len(rt.Space.RegionOf(a).Words) == committed {
				t.Errorf("%s: the second allocation did not grow the %d-word window", kind, committed)
			}
			stale[0] = 7
		})
		err := rt.VerifyHeap()
		if err == nil || !strings.Contains(err.Error(), "detached alias") {
			t.Errorf("%s: VerifyHeap after a write through a detached slice: %v", kind, err)
		}
	}
}

// TestVerifierSeesEveryRootSite plants a bad pointer in each kind of root
// site in turn — a pointer into another vproc's local heap for VerifyHeap, a
// from-space pointer for VerifyTriColor — and requires an error that names
// the vproc and the site. One row per kind the root enumeration
// (rootCursor.next) knows, plus the runtime's global roots; a new kind of root
// gets a row here. Timer continuations have no row of their own: AtThen parks
// them on vp.parked, the "parked continuation" row's list.
func TestVerifierSeesEveryRootSite(t *testing.T) {
	rows := []struct {
		site  string
		plant func(rt *Runtime, vp *VProc, x *heap.Addr)
	}{
		{"vproc 0 root 0", func(_ *Runtime, vp *VProc, x *heap.Addr) {
			vp.roots = append(vp.roots, *x)
		}},
		{"vproc 0 queued task 0 env 1", func(_ *Runtime, vp *VProc, x *heap.Addr) {
			vp.queue.pushBottom(&Task{env: []heap.Addr{0, *x}})
		}},
		{"vproc 0 proxy 0", func(_ *Runtime, vp *VProc, x *heap.Addr) {
			vp.proxies[0] = *x
		}},
		{"vproc 0 proxy 0 local slot", func(rt *Runtime, vp *VProc, x *heap.Addr) {
			rt.Space.Payload(vp.proxies[0])[heap.ProxyLocalSlot] = uint64(*x)
		}},
		{"vproc 0 result 0", func(_ *Runtime, vp *VProc, x *heap.Addr) {
			vp.resultTasks = append(vp.resultTasks, &Task{result: *x})
		}},
		{"vproc 0 parked continuation 0 env 0", func(_ *Runtime, vp *VProc, x *heap.Addr) {
			vp.parked = append(vp.parked, &rendezvous{owner: vp, task: &Task{env: []heap.Addr{*x, 0}}})
		}},
		{"global root 0", func(rt *Runtime, _ *VProc, x *heap.Addr) {
			rt.RegisterGlobalRoot(x)
		}},
	}
	verifiers := []struct {
		name   string
		verify func(rt *Runtime) error
		// bad makes the pointer this verifier must reject.
		bad func(rt *Runtime, white heap.Addr) heap.Addr
	}{
		{"VerifyHeap", (*Runtime).VerifyHeap, func(rt *Runtime, _ heap.Addr) heap.Addr {
			return rt.VProcs[1].Local.Bump(heap.MakeHeader(heap.IDRaw, 1))
		}},
		{"VerifyTriColor", (*Runtime).VerifyTriColor, func(rt *Runtime, white heap.Addr) heap.Addr {
			rt.Chunks.ChunkOf(white.RegionID()).FromSpace = true
			return white
		}},
	}
	for _, v := range verifiers {
		for _, row := range rows {
			// The fixture: vproc 0 keeps a local object on its root stack
			// with a registered proxy for it, and a global object in a
			// chunk of its own (so condemning that chunk whitens nothing
			// else).
			cfg := stressConfig(t, 2)
			cfg.Debug = false
			rt := MustNewRuntime(cfg)
			var white heap.Addr
			rt.Run(func(vp *VProc) {
				vp.NewProxy(vp.PushRoot(vp.AllocRaw([]uint64{7})))
				white = vp.AllocGlobalVectorN(cfg.ChunkWords - 4)
			})
			vp := rt.VProcs[0]
			if len(vp.proxies) != 1 || white.RegionID() == vp.proxies[0].RegionID() {
				t.Fatalf("fixture: proxies %v, global object %v", vp.proxies, white)
			}
			if err := v.verify(rt); err != nil {
				t.Fatalf("%s rejects the fixture before anything is planted: %v", v.name, err)
			}
			x := v.bad(rt, white)
			row.plant(rt, vp, &x)
			err := v.verify(rt)
			if err == nil {
				t.Errorf("%s missed %v planted in %s", v.name, x, row.site)
			} else if !strings.Contains(err.Error(), row.site+":") {
				t.Errorf("%s on %v planted in %s does not name the site: %v", v.name, x, row.site, err)
			}
		}
	}
}

// TestMinorCopyCommitsRegionWhole: a minor collection whose copies outgrow
// the old-area window's last step commits the region whole in mid-copy,
// which moves the nursery window too; the collection must go on reading and
// forwarding the nursery through the new array. Two minors of 200 live
// words each into a 2,048-word heap (last step 256 words) whose nursery never
// outgrows its steps, under Debug: the abandoned nursery array reads poison,
// a write into it fails the verifier, and the verifier runs after every
// collection.
func TestMinorCopyCommitsRegionWhole(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		r := vp.Local.Region
		var slots []int
		for round := 0; round < 2; round++ {
			for i := 0; i < 10; i++ {
				payload := make([]uint64, 19)
				payload[0] = uint64(len(slots))
				slots = append(slots, vp.PushRoot(vp.AllocRaw(payload)))
			}
			if r.Committed() == r.Size {
				t.Fatalf("round %d: the region is whole before its minor collection", round)
			}
			vp.minorGC()
		}
		if r.Committed() != r.Size {
			t.Errorf("after copying %d old-area words the region commits %d of %d words, want it whole",
				vp.Local.OldTop-1, r.Committed(), r.Size)
		}
		for i, s := range slots {
			if got := vp.LoadWord(vp.Root(s), 0); got != uint64(i) {
				t.Errorf("object %d reads %d after the minors", i, got)
			}
		}
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementChunkCommittedWhole: a chunk a vproc fetches because the
// next object does not fit its current one is committed whole at the fetch;
// its first chunk, and its first after a global collection condemned its
// last, grow in window steps. The vproc fills 512-word chunks to the last
// word and promotes one more word, until the global trigger (eight chunks)
// collects; Debug runs the verifier after the collection and at the end.
func TestReplacementChunkCommittedWhole(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	whole := func(c *heap.Chunk) bool { return c.Region.Committed() == c.Region.Size }
	// The to-space chunk the collection copied the survivor into, and
	// whether it was whole when the collection ended.
	var afterCondemn *heap.Chunk
	var wholeAfterCondemn bool
	rt.SetTracer(func(ev GCEvent) {
		if c := rt.VProcs[0].curChunk; ev.Kind == EvGlobalEnd && c != nil {
			afterCondemn, wholeAfterCondemn = c, whole(c)
		}
	})
	replaced := 0
	rt.Run(func(vp *VProc) {
		vp.PromoteRoot(vp.PushRoot(vp.AllocRaw([]uint64{7})))
		if c := vp.curChunk; whole(c) {
			t.Errorf("the vproc's first chunk commits all %d words at its fetch", c.Region.Size)
		}
		for rt.Stats.GlobalGCs == 0 {
			leaveChunkRoom(vp, 0)
			full := vp.curChunk
			vp.Promote(vp.AllocRaw([]uint64{8}))
			if rt.Stats.GlobalGCs != 0 {
				break
			}
			if c := vp.curChunk; c == full || !whole(c) {
				t.Fatalf("the chunk replacing a full one commits %d of %d words at its fetch", c.Region.Committed(), c.Region.Size)
			}
			replaced++
		}
	})
	if replaced == 0 {
		t.Fatal("no chunk was replaced before the global collection")
	}
	if afterCondemn == nil {
		t.Fatal("the global collection fetched no to-space chunk for the survivor")
	}
	if wholeAfterCondemn {
		t.Errorf("the first chunk after the condemn commits all %d words at its fetch", afterCondemn.Region.Size)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
}
