package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Mutable references — the extension sketched in the paper's conclusion:
// "Though some aspects of our system would need to be enhanced, for example
// with write barriers ... in the context of systems that permit and
// encourage frequent unrestricted memory mutation, we believe that these
// techniques are readily applicable to other runtimes."
//
// A Ref is a one-slot mutable cell allocated directly in the global heap.
// The write barrier preserves both heap invariants with no read barrier:
// because the cell is global, any value stored into it must first be
// promoted (otherwise the store would create a global→local pointer). Reads
// are plain loads.

// AllocGlobalVectorN allocates a vector of n nil pointers directly in the
// global heap. It is the primitive behind shared structures that are
// initialized in parallel (each writer promotes its element and stores it
// through the write barrier).
func (vp *VProc) AllocGlobalVectorN(n int) heap.Addr {
	rt := vp.rt
	dst := rt.globalAllocDst(vp, n)
	a := dst.Bump(heap.MakeHeader(heap.IDVector, n))
	node := rt.Space.NodeOf(a)
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, (n+1)*8, numa.AccessMemory))
	return a
}

// promoteRoot is the value side of the write barrier: it promotes the value
// held in a root slot, shades the promoted copy (the concurrent mark's
// insertion barrier: a promoted value can pass through as a still-white
// from-space global address, and must be shaded before it becomes reachable
// from a possibly-black object), updates the slot and returns the address.
func (vp *VProc) promoteRoot(slot int) heap.Addr {
	val := vp.gcWriteBarrier(vp.Promote(vp.roots[slot]))
	vp.roots[slot] = val
	return val
}

// StoreGlobalPtr stores the value held in a root slot into pointer field i
// of a global vector, promoting the value first (the write barrier that
// keeps global cells from pointing into local heaps). The root slot is
// updated to the promoted address.
func (vp *VProc) StoreGlobalPtr(obj heap.Addr, i int, valSlot int) {
	rt := vp.rt
	obj = vp.Resolve(obj)
	if rt.Space.Region(obj.RegionID()).Kind != heap.RegionChunk {
		panic(fmt.Sprintf("core: store target %v is not in the global heap", obj))
	}
	val := vp.promoteRoot(valSlot)
	// The promotion and barrier advances may have let an assist evacuate
	// obj; re-resolve in the same segment as the store so the write lands
	// in the live copy (identity outside a concurrent mark).
	obj = vp.Resolve(obj)
	rt.Space.Payload(obj)[i] = uint64(val)
	node := rt.Space.NodeOf(obj)
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, 8, numa.AccessMemory))
}

// NewRef allocates a mutable reference initialized from a root slot. The
// initial value is promoted.
func (vp *VProc) NewRef(initSlot int) heap.Addr {
	rt := vp.rt
	init := vp.promoteRoot(initSlot)
	dst := rt.globalAllocDst(vp, 1)
	ref := dst.Bump(heap.MakeHeader(heap.IDVector, 1))
	rt.Space.Payload(ref)[0] = uint64(init)
	node := rt.Space.NodeOf(ref)
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, 8, numa.AccessMemory))
	return ref
}

// ReadRef loads the referenced value.
func (vp *VProc) ReadRef(ref heap.Addr) heap.Addr {
	ref = vp.Resolve(ref)
	if heap.HeaderID(vp.rt.Space.Header(ref)) != heap.IDVector || vp.rt.Space.ObjectLen(ref) != 1 {
		panic(fmt.Sprintf("core: ReadRef of non-ref object %v", ref))
	}
	return heap.Addr(vp.LoadWord(ref, 0))
}

// WriteRef stores the value held in a root slot into the reference: a
// reference is a one-slot global vector, so this is StoreGlobalPtr on slot 0,
// write barrier included (§5's "enhancement": global cells may never point
// into a local heap).
func (vp *VProc) WriteRef(ref heap.Addr, valSlot int) {
	vp.StoreGlobalPtr(ref, 0, valSlot)
}
