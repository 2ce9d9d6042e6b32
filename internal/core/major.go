package core

import (
	"repro/internal/heap"
	"repro/internal/numa"
)

// majorGC performs a major collection (§3.3, Figure 3): live objects in the
// old-data area are copied to the vproc's dedicated chunk in the global
// heap. To avoid premature promotion the old-data area is partitioned: the
// young data (copied by the immediately preceding minor collection, hence
// guaranteed live) stays in the local heap and is slid down to the bottom.
// Synchronization is needed only when the current chunk is exhausted.
//
// Preconditions: a minor collection has just completed (the nursery is
// empty).
func (vp *VProc) majorGC() {
	rt := vp.rt
	lh := vp.Local
	start := vp.beginLocalGC()
	vp.Stats.MajorGCs++

	// Everything this collection reads or moves lies in the old-area window
	// below OldTop, committed by the minor collections that copied it there;
	// the nursery is empty.
	region := lh.Region
	old := region.Old

	// From-space is the old partition [1, youngStart); with the
	// young-data partition disabled (ablation) everything below OldTop
	// is evacuated, including the guaranteed-live young data.
	youngStart := lh.YoungStart
	if !rt.Cfg.YoungPartition {
		youngStart = lh.OldTop
	}
	var copied int64

	// forward evacuates an old-partition object into the global heap.
	var forward func(a heap.Addr) heap.Addr
	forward = func(a heap.Addr) heap.Addr {
		if a == 0 || a.RegionID() != region.ID || a.Word() >= youngStart {
			return a
		}
		h := old[a.Word()-1]
		if !heap.IsHeader(h) {
			return heap.ForwardTarget(h)
		}
		na, c := vp.copyOut(vp, a, h)
		copied += int64(heap.HeaderLen(h) + 1)
		vp.advance(c)

		// Cheney-scan the copy immediately (recursive formulation is
		// fine here: object graphs in the local heap are bounded by
		// the local heap size).
		heap.ScanObject(rt.Space, rt.Descs, na, func(_ int, p heap.Addr) heap.Addr {
			return forward(p)
		})
		return na
	}

	vp.forwardRoots(forward)

	// The young data is live by construction; its pointers into the old
	// partition must be forwarded.
	heap.ScanRange(rt.Space, rt.Descs, region, youngStart, lh.OldTop, forward)

	// Figure 3 "reclaim space": slide the young data down to the bottom
	// of the heap. Intra-young pointers shift by delta; pointers to the
	// evacuated old partition were already rewritten to global addresses.
	delta := youngStart - 1
	youngLen := lh.OldTop - youngStart
	if delta > 0 && youngLen > 0 {
		copy(old[1:1+youngLen], old[youngStart:lh.OldTop])
		// Charge the slide as a local-heap copy.
		node := rt.Space.NodeOf(heap.MakeAddr(region.ID, 1))
		vp.advance(rt.Machine.CopyStreamCost(vp.Now(), vp.Core, node, node, youngLen*8, numa.AccessCache, numa.AccessCache))
	}
	adjust := func(a heap.Addr) heap.Addr {
		if a != 0 && a.RegionID() == region.ID && a.Word() >= youngStart && a.Word() < lh.OldTop {
			return heap.MakeAddr(region.ID, a.Word()-delta)
		}
		return a
	}
	if delta > 0 && youngLen > 0 {
		heap.ScanRange(rt.Space, rt.Descs, region, 1, 1+youngLen, adjust)
		vp.forwardRoots(adjust)
	}

	lh.OldTop = 1 + youngLen
	lh.YoungStart = lh.OldTop // young becomes old; next minor repopulates
	lh.ResetNursery()

	vp.Stats.MajorCopied += copied
	vp.endLocalGC(EvMajor, start, copied)
	// The global-collection trigger (§3.4) is checked in getChunk, which
	// observes every growth of the global heap including this major's
	// chunk requests.
}
