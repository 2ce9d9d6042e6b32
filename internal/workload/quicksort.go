package workload

import (
	"sort"

	"repro/internal/core"
	"repro/internal/heap"
)

// Quicksort (§4.1): "sorts a sequence of 10,000,000 integers in parallel.
// This code is based on the NESL version of the algorithm." The NESL
// algorithm partitions the sequence into less/equal/greater subsequences by
// filtering (allocating fresh sequences) and recurses on the outer two in
// parallel — a heavily allocating, fork-join workload whose parallelism
// narrows at the top of the recursion, which is what limits its scaling in
// the paper (§4.2).

// qsBaseN is the default (scale=1) input size; the paper uses 10,000,000.
const qsBaseN = 96 << 10

// qsCutoff is the sequential cutoff in elements.
const qsCutoff = 512

// RunQuicksort executes the benchmark; Check is an FNV fold of the sorted
// sequence.
func RunQuicksort(rt *core.Runtime, scale float64) Result {
	n := scaled(qsBaseN, scale)
	d := RegisterRopeDescs(rt)

	var check uint64
	var t0, t1 int64
	rt.Run(func(vp *core.VProc) {
		rng := newRand(rt.Cfg.Seed ^ 0x9c5d)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Next() >> 16
		}
		in := ropeFromInts(vp, d, vals)
		inSlot := vp.PushRoot(in)

		// Timed region: the sort itself (the paper times the
		// benchmark computation, not input generation or validation).
		t0 = vp.Now()
		out := qsort(vp, d, inSlot)
		t1 = vp.Now()
		outSlot := vp.PushRoot(out)

		sorted := ropeToInts(vp, vp.Root(outSlot))
		for _, w := range sorted {
			check = fnv1a(check, w)
		}
		vp.PopRoots(2)
	})
	return Result{ElapsedNs: t1 - t0, Check: check, Stats: rt.TotalStats()}
}

// qsort sorts the rope held in inSlot and returns the sorted rope. The
// returned address must be rooted by the caller before its next allocation.
func qsort(vp *core.VProc, d RopeDescs, inSlot int) heap.Addr {
	n := ropeLen(vp, vp.Root(inSlot))
	if n <= qsCutoff {
		return seqSortRope(vp, d, inSlot)
	}
	pivot := firstElem(vp, vp.Root(inSlot))

	// The three-way partition is itself a parallel rope operation, as in
	// the PML/NESL original; it is not a sequential bottleneck.
	partsSlot := vp.PushRoot(ropePartition3Par(vp, d, inSlot, pivot))
	lessSlot := vp.PushRoot(vp.LoadPtr(vp.Root(partsSlot), 0))
	eqSlot := vp.PushRoot(vp.LoadPtr(vp.Root(partsSlot), 1))
	grSlot := vp.PushRoot(vp.LoadPtr(vp.Root(partsSlot), 2))

	// Greater half as a stealable task; less half inline.
	t := vp.SpawnResult(func(vp *core.VProc, env core.Env) heap.Addr {
		s := vp.PushRoot(env.Get(vp, 0))
		r := qsort(vp, d, s)
		vp.PopRoots(1)
		return r
	}, vp.Root(grSlot))

	sortedLess := qsort(vp, d, lessSlot)
	vp.SetRoot(lessSlot, sortedLess)

	sortedGr := vp.JoinResult(t)
	vp.SetRoot(grSlot, sortedGr)

	// less ++ eq ++ greater.
	le := ropeCat(vp, d, lessSlot, eqSlot)
	vp.SetRoot(lessSlot, le)
	out := ropeCat(vp, d, lessSlot, grSlot)
	vp.PopRoots(4)
	return out
}

// firstElem returns the first element of a non-empty rope.
func firstElem(vp *core.VProc, a heap.Addr) uint64 {
	for {
		a = vp.Resolve(a)
		if vp.HeaderID(a) == heap.IDRaw {
			return vp.LoadWord(a, 0)
		}
		a = vp.LoadPtr(a, ropeLeftSlot)
	}
}

// seqSortRope flattens the rope in slot, sorts host-side (charging the
// comparison work), and rebuilds a rope.
func seqSortRope(vp *core.VProc, d RopeDescs, slot int) heap.Addr {
	vals := ropeToInts(vp, vp.Root(slot))
	n := len(vals)
	if n > 1 {
		logn := 1
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		vp.Compute(int64(2 * n * logn))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return ropeFromInts(vp, d, vals)
}
