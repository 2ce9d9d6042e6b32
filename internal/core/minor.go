package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
)

// minorGC performs a minor collection (§3.3, Figure 2): all live data is
// copied from the nursery into the old-data area of the same local heap.
// Because there are no pointers into the local heap from outside (other
// than the roots), minor collections require no synchronization with other
// vprocs. Afterwards the remaining free space is split and the upper half
// becomes the new nursery, and a major collection is triggered if the new
// nursery falls below threshold or a global collection is pending.
func (vp *VProc) minorGC() {
	rt := vp.rt
	lh := vp.Local
	start := vp.beginLocalGC()
	vp.Stats.MinorGCs++

	// The nursery's objects are read from its window and copied into the
	// old-area window, which the copies grow (see heap.LocalHeap); a copy
	// that commits the region whole moves the nursery window too, so both
	// are taken from the region again after each growth.
	region := lh.Region
	oldTopBefore := lh.OldTop
	nurseryStart := lh.NurseryStart
	var copied int64

	// Copy charges fuse into one engine advance per collection while the
	// local heap's pages are node-local (see chargeBatch): the collector
	// holds heapBusy, so nothing observable happens between the fused
	// instants. Metered charges (non-local pages under interleaved or
	// single-node placement) flush and advance at their exact instants.
	batch := chargeBatch{vp: vp}

	// forward copies a nursery object to the old-data area and returns
	// its new address; non-nursery addresses pass through unchanged.
	var forward func(a heap.Addr) heap.Addr
	forward = func(a heap.Addr) heap.Addr {
		if a == 0 || a.RegionID() != region.ID || a.Word() < nurseryStart {
			return a
		}
		w := a.Word() - nurseryStart
		h := region.Words[w-1]
		if !heap.IsHeader(h) {
			// Already copied by this collection, or promoted
			// earlier; either way follow the forwarding pointer.
			// A promoted object's global copy needs no further
			// treatment here.
			return heap.ForwardTarget(h)
		}
		n := heap.HeaderLen(h)
		dst := lh.OldTop
		if dst+n+1 > lh.NurseryStart {
			panic(fmt.Sprintf("core: vproc %d minor GC overflowed reserve (dst=%d n=%d nursery=%d)",
				vp.ID, dst, n, lh.NurseryStart))
		}
		old := region.OldWindow(dst + n + 1)
		nursery := region.Words
		old[dst] = h
		copy(old[dst+1:dst+1+n], nursery[w:w+n])
		na := heap.MakeAddr(region.ID, dst+1)
		nursery[w-1] = heap.MakeForward(na)
		lh.OldTop = dst + n + 1
		copied += int64(n + 1)

		// Charge the copy: nursery and old area are both in the local
		// heap, so with node-local pages this is an L3-resident copy.
		srcNode := rt.Space.NodeOf(a)
		dstNode := rt.Space.NodeOf(na)
		batch.copyStream(srcNode, dstNode, (n+1)*8, numa.AccessCache, numa.AccessCache)
		return na
	}

	vp.forwardRoots(forward)

	// Cheney scan of the data copied into the old area; the copies the scan
	// itself makes extend the range it walks.
	for w := region.Walk(oldTopBefore, lh.OldTop); ; {
		w.End = lh.OldTop
		obj, h, ok := w.Next()
		if !ok {
			break
		}
		if !heap.IsHeader(h) {
			panic("core: forwarding pointer in minor to-space")
		}
		heap.ScanObject(rt.Space, rt.Descs, obj, func(_ int, p heap.Addr) heap.Addr {
			return forward(p)
		})
	}

	batch.flush()

	// Figure 2: reclaim the nursery, split the free space, upper half
	// becomes the new nursery. Everything copied by this collection is
	// the young-data partition for the next major collection.
	lh.YoungStart = oldTopBefore
	lh.ResetNursery()

	vp.Stats.MinorCopied += copied
	vp.endLocalGC(EvMinor, start, copied)

	// §3.3: "A minor garbage collection triggers a major garbage
	// collection when the size of the new nursery area falls below a
	// certain threshold or if a global garbage collection is pending."
	if lh.NurseryWords() < rt.Cfg.MinNurseryWords || rt.global.pending {
		vp.majorGC()
	}
}

// beginLocalGC opens the frame shared by the two collections of a vproc's own
// heap, minor and major: it takes the virtual heap lock that keeps thieves
// out (heapBusy) and counts the collection as active for the debug verifier.
// It commits nothing: the collectors index the local region's two windows,
// and a minor collection grows the old-area one as its copies need.
// It returns the instant the collection started.
func (vp *VProc) beginLocalGC() (start int64) {
	start = vp.Now()
	vp.heapBusy = true
	vp.rt.localGCActive++
	return start
}

// endLocalGC closes the frame: the collection's virtual time is accounted,
// the heap lock dropped, a Cfg.Debug run verifies the whole heap once no
// other local collection is mid-flight, and the phase event is emitted.
func (vp *VProc) endLocalGC(kind EventKind, start, copied int64) {
	rt := vp.rt
	vp.Stats.GCNs += vp.Now() - start
	vp.unlockHeap()
	rt.localGCActive--
	if rt.Cfg.Debug && rt.localGCActive == 0 {
		mustVerify(rt.VerifyHeap(), fmt.Sprintf("after %s GC on vproc %d", kind, vp.ID))
	}
	rt.emit(GCEvent{Kind: kind, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - start, Words: copied})
}
