package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Promotion (§3.3): "the runtime system also implements object promotion,
// which is required when an object is to be shared with other vprocs.
// Promotion is essentially a major collection, where the root set is a
// pointer to the promoted object, and the synchronization requirements are
// the same as for major collection."
//
// Promotion leaves forwarding pointers in the source local heap; subsequent
// local collections of the owner resolve them.

// Promote copies the object graph rooted at a out of this vproc's local
// heap into its current global chunk and returns the global address.
// Global addresses and nil pass through unchanged.
func (vp *VProc) Promote(a heap.Addr) heap.Addr {
	return vp.promoteFrom(vp, a)
}

// PromoteRoot promotes the object held in a root slot and updates the slot.
func (vp *VProc) PromoteRoot(slot int) heap.Addr {
	na := vp.Promote(vp.roots[slot])
	vp.roots[slot] = na
	return na
}

// promoteFrom copies the object graph rooted at root out of owner's local
// heap into the executing vproc's current chunk. The executing vproc may be
// a thief performing lazy promotion of stolen work; the caller is
// responsible for the heapBusy handshake in that case.
func (vp *VProc) promoteFrom(owner *VProc, root heap.Addr) heap.Addr {
	if owner == vp {
		// Exclude concurrent thieves from our heap for the duration
		// (the same synchronization a major collection needs).
		vp.awaitHeap(vp)
		vp.heapBusy = true
	}
	start := vp.beginPromotion()
	var promoted int64
	var work []heap.Addr
	forward := func(_ int, a heap.Addr) heap.Addr {
		na, words, c, _ := vp.promoteOne(owner, a, false)
		if words != 0 {
			promoted += words
			vp.advance(c)
			work = append(work, na)
		}
		return na
	}

	na := forward(0, root)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		heap.ScanObject(vp.rt.Space, vp.rt.Descs, obj, forward)
	}
	vp.endPromotion(start, promoted)
	if owner == vp {
		vp.unlockHeap()
	}
	return na
}

// promoteOne is promotion's one per-object step. It classifies a, a pointer
// out of owner's heap (in either of its windows), once: nil, outside the heap,
// already forwarded, or to be copied into the executing vproc's current
// chunk. It returns the global address, the words copied (0: none) and the
// copy's charge, which the caller advances. In cost form it declines (ok
// false), touching nothing, where the copy could not be one charge: the
// object holds pointers to follow, or the current chunk has no room for it.
func (vp *VProc) promoteOne(owner *VProc, a heap.Addr, cost bool) (na heap.Addr, words, charge int64, ok bool) {
	region := owner.Local.Region
	if a == 0 {
		return 0, 0, 0, true
	}
	if a.RegionID() != region.ID {
		// Global, or a proxy: a pointer into a third vproc's local heap
		// would violate the heap invariant.
		if r := vp.rt.Space.Region(a.RegionID()); r.Kind == heap.RegionLocal {
			panic(fmt.Sprintf("core: promotion from vproc %d found pointer into vproc %d's local heap",
				owner.ID, r.Owner))
		}
		return a, 0, 0, true
	}
	h := region.At(a.Word() - 1)
	if !heap.IsHeader(h) {
		return heap.ForwardTarget(h), 0, 0, true
	}
	if cost && (heap.HeaderID(h) != heap.IDRaw || !vp.chunkRoom(heap.HeaderLen(h))) {
		vp.rt.declines.Promote++
		return 0, 0, 0, false
	}
	na, charge = vp.copyOut(owner, a, h)
	return na, int64(heap.HeaderLen(h) + 1), charge, true
}

// awaitHeap spins on the executing vproc's clock until v's heap lock
// (heapBusy) is free: a promotion's wait for the heap it copies out of.
func (vp *VProc) awaitHeap(v *VProc) {
	for v.heapBusy {
		vp.advance(spinNs)
	}
}

// beginPromotion opens the frame of a promotion on the executing vproc, which
// holds the source heap's lock: like a local collection, it counts in
// localGCActive until endPromotion. It returns the promotion's first instant.
func (vp *VProc) beginPromotion() (start int64) {
	vp.rt.localGCActive++
	return vp.Now()
}

// endPromotion closes the frame opened at start: when words were copied, it
// counts the promotion and emits its event, which ends now.
func (vp *VProc) endPromotion(start, words int64) {
	vp.rt.localGCActive--
	if words != 0 {
		vp.Stats.Promotions++
		vp.Stats.PromotedWords += words
		vp.rt.emit(GCEvent{Kind: EvPromote, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - start, Words: words})
	}
}

// copyOut copies the object at a, whose header is h, out of owner's local
// heap into the executing vproc's current chunk, fetching one when it has no
// room, and returns the copy with the copy's charge.
func (vp *VProc) copyOut(owner *VProc, a heap.Addr, h uint64) (heap.Addr, int64) {
	// The source is another vproc's local heap when stealing, so it is
	// charged as a memory access unless node-local to us.
	srcKind := numa.AccessMemory
	if owner == vp {
		srcKind = numa.AccessCache
	}
	return vp.copyObject(a, h, vp.rt.globalAllocDst(vp, heap.HeaderLen(h)), srcKind)
}

// copyObject is the one copy into the global heap (§3.3: promotion "is
// essentially a major collection"; the global collector's evacuation is the
// same move between chunks): it bumps the object at a, whose header is h, into
// dst, which has room for it, copies its payload out of a's region, leaves a
// forwarding word behind, and returns the copy with its charge, the source
// read as srcKind and the global heap written as memory. The mutations precede
// the charge, so a scanner that runs during it finds the object forwarded.
func (vp *VProc) copyObject(a heap.Addr, h uint64, dst *heap.Chunk, srcKind numa.AccessKind) (heap.Addr, int64) {
	rt := vp.rt
	src := rt.Space.RegionOf(a)
	n := heap.HeaderLen(h)
	na := dst.Bump(h)
	copy(rt.Space.Payload(na), src.Span(a.Word(), a.Word()+n))
	src.Set(a.Word()-1, heap.MakeForward(na))
	return na, rt.Machine.CopyStreamCost(vp.Now(), vp.Core, rt.Space.NodeOf(a), rt.Space.NodeOf(na), (n+1)*8, srcKind, numa.AccessMemory)
}
