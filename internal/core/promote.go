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
			// Must already be global (or a proxy): pointers into a
			// third vproc's local heap would violate the heap
			// invariant.
			if r := rt.Space.Region(a.RegionID()); r.Kind == heap.RegionLocal {
				panic(fmt.Sprintf("core: promotion from vproc %d found pointer into vproc %d's local heap",
					owner.ID, r.Owner))
			}
			return a
		}
		h := region.At(a.Word() - 1)
		if !heap.IsHeader(h) {
			return heap.ForwardTarget(h)
		}
		n := heap.HeaderLen(h)
		dst := rt.globalAllocDst(vp, n)
		na := dst.Bump(h)
		copy(rt.Space.Payload(na), region.Span(a.Word(), a.Word()+n))
		region.Set(a.Word()-1, heap.MakeForward(na))
		promoted += int64(n + 1)

		srcNode := rt.Space.NodeOf(a)
		dstNode := rt.Space.NodeOf(na)
		// The source is another vproc's local heap when stealing, so
		// it is charged as a memory access unless node-local to us.
		srcKind := numa.AccessMemory
		if owner == vp {
			srcKind = numa.AccessCache
		}
		vp.advance(rt.Machine.CopyStreamCost(vp.Now(), vp.Core, srcNode, dstNode, (n+1)*8,
			srcKind, numa.AccessMemory))

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
		vp.Stats.Promotions++
		vp.Stats.PromotedWords += promoted
		rt.emit(GCEvent{Kind: EvPromote, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - start, Words: promoted})
	}
	return na
}
