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
	rt := vp.rt
	if owner == vp {
		// Exclude concurrent thieves from our heap for the duration
		// (the same synchronization a major collection needs).
		for vp.heapBusy {
			vp.advance(spinNs)
		}
		vp.heapBusy = true
		defer vp.unlockHeap()
	}
	// The object may lie in either of the owner's windows, so its words are
	// reached through the region's accessors.
	region := owner.Local.Region
	start := vp.Now()
	rt.localGCActive++
	defer func() { rt.localGCActive-- }()
	var promoted int64

	var work []heap.Addr
	forward := func(a heap.Addr) heap.Addr {
		if a == 0 {
			return a
		}
		if a.RegionID() != region.ID {
			vp.checkCrossRegion(owner, a)
			return a
		}
		h := region.At(a.Word() - 1)
		if !heap.IsHeader(h) {
			return heap.ForwardTarget(h)
		}
		na, c := vp.copyOut(owner, a, h)
		promoted += int64(heap.HeaderLen(h) + 1)
		vp.advance(c)
		work = append(work, na)
		return na
	}

	na := forward(root)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		heap.ScanObject(rt.Space, rt.Descs, obj, func(_ int, p heap.Addr) heap.Addr {
			return forward(p)
		})
	}

	if promoted > 0 {
		vp.promoted(start, promoted)
	}
	return na
}

// checkCrossRegion panics unless a, outside owner's local heap, is global (or
// a proxy): a pointer into a third vproc's local heap would violate the heap
// invariant.
func (vp *VProc) checkCrossRegion(owner *VProc, a heap.Addr) {
	if r := vp.rt.Space.Region(a.RegionID()); r.Kind == heap.RegionLocal {
		panic(fmt.Sprintf("core: promotion from vproc %d found pointer into vproc %d's local heap",
			owner.ID, r.Owner))
	}
}

// copyOut copies the object at a, whose header is h, out of owner's local
// heap into the executing vproc's current chunk, leaves a forwarding word
// behind, and returns the copy with the copy's charge.
func (vp *VProc) copyOut(owner *VProc, a heap.Addr, h uint64) (heap.Addr, int64) {
	rt := vp.rt
	region := owner.Local.Region
	n := heap.HeaderLen(h)
	dst := rt.globalAllocDst(vp, n)
	na := dst.Bump(h)
	copy(rt.Space.Payload(na), region.Span(a.Word(), a.Word()+n))
	region.Set(a.Word()-1, heap.MakeForward(na))
	srcNode := rt.Space.NodeOf(a)
	dstNode := rt.Space.NodeOf(na)
	// The source is another vproc's local heap when stealing, so it is
	// charged as a memory access unless node-local to us.
	srcKind := numa.AccessMemory
	if owner == vp {
		srcKind = numa.AccessCache
	}
	return na, rt.Machine.CopyStreamCost(vp.Now(), vp.Core, srcNode, dstNode, (n+1)*8, srcKind, numa.AccessMemory)
}

// promoted counts a promotion of words that began at start and ends now.
func (vp *VProc) promoted(start, words int64) {
	vp.Stats.Promotions++
	vp.Stats.PromotedWords += words
	vp.rt.emit(GCEvent{Kind: EvPromote, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - start, Words: words})
}

// canPromoteOne reports whether promoteOne can promote root out of owner's
// heap (owner is not the executing vproc): root needs no copy, or it is one
// pointer-free object that the current chunk has room for.
func (vp *VProc) canPromoteOne(owner *VProc, root heap.Addr) bool {
	region := owner.Local.Region
	if root == 0 || root.RegionID() != region.ID {
		return true
	}
	h := region.At(root.Word() - 1)
	return !heap.IsHeader(h) || heap.HeaderID(h) == heap.IDRaw && vp.chunkRoom(heap.HeaderLen(h))
}

// promoteOne is promoteFrom in cost form, for a root canPromoteOne accepts:
// the global address, the words copied (0: none, and nothing to charge) and
// the copy's charge. The caller holds owner's heap and localGCActive over
// the charge, and counts the promotion (promoted) once it is charged.
func (vp *VProc) promoteOne(owner *VProc, root heap.Addr) (na heap.Addr, words, charge int64) {
	region := owner.Local.Region
	if root == 0 {
		return 0, 0, 0
	}
	if root.RegionID() != region.ID {
		vp.checkCrossRegion(owner, root)
		return root, 0, 0
	}
	h := region.At(root.Word() - 1)
	if !heap.IsHeader(h) {
		return heap.ForwardTarget(h), 0, 0
	}
	na, charge = vp.copyOut(owner, root, h)
	return na, int64(heap.HeaderLen(h) + 1), charge
}
