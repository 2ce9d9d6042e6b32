package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// The synthetic churn loop in direct style — recursive, one Advance per
// charge — which synMachine transcribes: the reference that
// TestStepKernelEquivalence compares the machine against.

// synChurnDirect performs the allocation loop and returns a checksum of the
// survivors.
func synChurnDirect(vp *core.VProc, salt uint64, ops int) uint64 {
	listSlot := vp.PushRoot(0)
	for i := 0; i < ops; i++ {
		tr := synTree(vp, synTreeDepth, salt+uint64(i))
		if i%synKeepEvery == 0 {
			ts := vp.PushRoot(tr)
			cell := vp.AllocVector([]int{ts, listSlot})
			vp.PopRoots(1)
			vp.SetRoot(listSlot, cell)
		}
		vp.Compute(synComputeNs)
	}
	// Fold the survivors.
	var check uint64
	a := vp.Root(listSlot)
	for a != 0 {
		a = vp.Resolve(a)
		p := vp.ReadBlock(a)
		check = fnv1a(check, synTreeSum(vp, heap.Addr(p[0])))
		a = heap.Addr(p[1])
	}
	vp.PopRoots(1)
	return check
}

// synTree builds a small binary tree.
func synTree(vp *core.VProc, depth int, val uint64) heap.Addr {
	if depth == 0 {
		return vp.AllocRaw([]uint64{val})
	}
	l := synTree(vp, depth-1, val*2+1)
	ls := vp.PushRoot(l)
	r := synTree(vp, depth-1, val*2+2)
	rs := vp.PushRoot(r)
	v := vp.AllocVector([]int{ls, rs})
	vp.PopRoots(2)
	return v
}

// synTreeSum folds a tree.
func synTreeSum(vp *core.VProc, a heap.Addr) uint64 {
	a = vp.Resolve(a)
	if vp.HeaderID(a) == heap.IDRaw {
		return vp.LoadWord(a, 0)
	}
	p := vp.ReadBlock(a)
	l, r := heap.Addr(p[0]), heap.Addr(p[1])
	return synTreeSum(vp, l)*3 + synTreeSum(vp, r)
}
