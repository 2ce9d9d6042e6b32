package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// The barnes-hut force kernel in direct style — recursive, one Advance per
// charge — which stepBodyStepped transcribes: the reference that
// TestStepKernelEquivalence compares the machine against.

// stepBody computes the force on body i from the tree and writes the
// advanced body into the next vector.
func stepBody(vp *core.VProc, env core.Env, i int) {
	body := vp.LoadPtr(env.Get(vp, 0), i)
	bp := append([]uint64(nil), vp.ReadBlock(body)...)
	x, y := w2f(bp[bodyX]), w2f(bp[bodyY])
	var ax, ay float64
	var visit func(cell heap.Addr, depth int)
	visit = func(cell heap.Addr, depth int) {
		var p []uint64
		if depth < bhCachedLevels {
			p = vp.ReadBlockCachedCompute(cell, bhVisitNs)
		} else {
			p = vp.ReadBlockCompute(cell, bhVisitNs)
		}
		if !bhCell(p, x, y, &ax, &ay) {
			return
		}
		// Copy the child pointers before descending: the descent yields.
		var kids [4]heap.Addr
		for q := range kids {
			kids[q] = heap.Addr(p[cellQ0+q])
		}
		for _, kid := range kids {
			if kid != 0 {
				visit(kid, depth+1)
			}
		}
	}
	visit(env.Get(vp, 1), 0)
	bhLeapfrog(vp, env, i, bp, ax, ay)
}
