package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// Ropes are the sequence representation of the implicitly-threaded
// workloads, mirroring Manticore's use of rope-structured parallel
// sequences: leaves are raw arrays of at most leafWords elements, interior
// concatenation nodes are mixed-type objects. Because leaves are small,
// sequences of any length flow through the fixed-size local heaps, and
// stolen subropes are promoted piecemeal by the lazy-promotion machinery.

// leafWords is the maximum leaf payload.
const leafWords = 256

// Rope mixed-object layout: [0] length (raw), [1] left, [2] right.
const (
	ropeLenSlot   = 0
	ropeLeftSlot  = 1
	ropeRightSlot = 2
	ropeSizeWords = 3
)

// RopeDescs holds the descriptor IDs a runtime needs for ropes.
type RopeDescs struct {
	Cat uint16
}

// RegisterRopeDescs installs the rope descriptors into a runtime's
// descriptor table.
func RegisterRopeDescs(rt *core.Runtime) RopeDescs {
	return RopeDescs{
		Cat: rt.Descs.Register("rope-cat", ropeSizeWords, []int{ropeLeftSlot, ropeRightSlot}),
	}
}

// ropeLen returns the element count of a rope, charging the length-field
// load for concatenation nodes.
func ropeLen(vp *core.VProc, a heap.Addr) int {
	if a == 0 {
		return 0
	}
	a = vp.Resolve(a)
	if vp.HeaderID(a) == heap.IDRaw {
		return vp.ObjectLen(a)
	}
	return int(vp.LoadWord(a, ropeLenSlot))
}

// ropeCat builds a concatenation node over the ropes in two root slots.
func ropeCat(vp *core.VProc, d RopeDescs, leftSlot, rightSlot int) heap.Addr {
	ll := ropeLen(vp, vp.Root(leftSlot))
	rl := ropeLen(vp, vp.Root(rightSlot))
	if ll == 0 {
		return vp.Root(rightSlot)
	}
	if rl == 0 {
		return vp.Root(leftSlot)
	}
	return vp.AllocMixed(d.Cat,
		[]core.RawField{{Off: ropeLenSlot, Word: uint64(ll + rl)}},
		[]core.PtrField{{Off: ropeLeftSlot, Slot: leftSlot}, {Off: ropeRightSlot, Slot: rightSlot}})
}

// ropeMaxObject is the largest object of a rope at any scale: a full leaf.
// A concatenation node holds three words.
func ropeMaxObject(float64) int { return leafWords }

// ropeFromInts builds a balanced rope over the values; used by input
// generators. The caller receives an unrooted address.
func ropeFromInts(vp *core.VProc, d RopeDescs, vals []uint64) heap.Addr {
	if len(vals) <= leafWords {
		return vp.AllocRaw(vals)
	}
	mid := len(vals) / 2
	l := ropeFromInts(vp, d, vals[:mid])
	ls := vp.PushRoot(l)
	r := ropeFromInts(vp, d, vals[mid:])
	rs := vp.PushRoot(r)
	cat := ropeCat(vp, d, ls, rs)
	vp.PopRoots(2)
	return cat
}

// ropeToInts flattens a rope, charging streamed reads of every leaf.
func ropeToInts(vp *core.VProc, a heap.Addr) []uint64 {
	var out []uint64
	var walk func(a heap.Addr)
	walk = func(a heap.Addr) {
		if a == 0 {
			return
		}
		a = vp.Resolve(a)
		if vp.HeaderID(a) == heap.IDRaw {
			out = append(out, vp.ReadBlock(a)...)
			return
		}
		// Hold left and right as locals before descending: flattening
		// itself performs no allocation, so they cannot move mid-walk.
		p := vp.ReadBlock(a)
		l, r := heap.Addr(p[ropeLeftSlot]), heap.Addr(p[ropeRightSlot])
		walk(l)
		walk(r)
	}
	walk(a)
	return out
}

// filterGrain is the element count below which the parallel partition runs
// sequentially.
const filterGrain = 2048

// ropePartition3 partitions the rope in slot by pivot into (less, equal,
// greater) in a single read pass — NESL's three-way partition. The result
// is returned as a 3-element vector object (so it can flow through the
// task-result machinery as one reference).
func ropePartition3(vp *core.VProc, d RopeDescs, slot int, pivot uint64) heap.Addr {
	outs := [3]int{vp.PushRoot(0), vp.PushRoot(0), vp.PushRoot(0)}
	var bufs [3][]uint64

	flush := func(k int) {
		if len(bufs[k]) == 0 {
			return
		}
		leaf := vp.AllocRaw(bufs[k])
		ls := vp.PushRoot(leaf)
		cat := ropeCat(vp, d, outs[k], ls)
		vp.PopRoots(1)
		vp.SetRoot(outs[k], cat)
		bufs[k] = bufs[k][:0]
	}

	var walk func(rs int)
	walk = func(rs int) {
		a := vp.Resolve(vp.Root(rs))
		if a == 0 {
			return
		}
		if vp.HeaderID(a) == heap.IDRaw {
			// Copy the leaf out at the read instant, charging the streamed
			// read and the batched per-element compare: the flushes below
			// allocate, which may move the leaf.
			words := append([]uint64(nil), vp.ReadBlock(a)...)
			vp.Compute(int64(len(words)))
			for _, w := range words {
				k := 1
				if w < pivot {
					k = 0
				} else if w > pivot {
					k = 2
				}
				bufs[k] = append(bufs[k], w)
				if len(bufs[k]) == leafWords {
					flush(k)
				}
			}
			return
		}
		p := vp.ReadBlock(a)
		l := vp.PushRoot(heap.Addr(p[ropeLeftSlot]))
		r := vp.PushRoot(heap.Addr(p[ropeRightSlot]))
		walk(l)
		walk(r)
		vp.PopRoots(2)
	}
	walk(slot)
	for k := 0; k < 3; k++ {
		flush(k)
	}
	v := vp.AllocVector([]int{outs[0], outs[1], outs[2]})
	vp.PopRoots(3)
	return v
}

// ropePartition3Par is the parallel three-way partition: subropes partition
// as fork-join tasks and the three components concatenate pairwise.
func ropePartition3Par(vp *core.VProc, d RopeDescs, slot int, pivot uint64) heap.Addr {
	a := vp.Resolve(vp.Root(slot))
	vp.SetRoot(slot, a)
	if a == 0 || vp.HeaderID(a) == heap.IDRaw || ropeLen(vp, a) <= filterGrain {
		return ropePartition3(vp, d, slot, pivot)
	}
	p := vp.ReadBlock(a)
	lS := vp.PushRoot(heap.Addr(p[ropeLeftSlot]))
	rS := vp.PushRoot(heap.Addr(p[ropeRightSlot]))

	t := vp.SpawnResult(func(vp *core.VProc, env core.Env) heap.Addr {
		s := vp.PushRoot(env.Get(vp, 0))
		out := ropePartition3Par(vp, d, s, pivot)
		vp.PopRoots(1)
		return out
	}, vp.Root(rS))

	lp := ropePartition3Par(vp, d, lS, pivot)
	vp.SetRoot(lS, lp)
	rp := vp.JoinResult(t)
	vp.SetRoot(rS, rp)

	// Concatenate component-wise: out[k] = left[k] ++ right[k].
	parts := [3]int{vp.PushRoot(0), vp.PushRoot(0), vp.PushRoot(0)}
	for k := 0; k < 3; k++ {
		la := vp.PushRoot(vp.LoadPtr(vp.Root(lS), k))
		ra := vp.PushRoot(vp.LoadPtr(vp.Root(rS), k))
		vp.SetRoot(parts[k], ropeCat(vp, d, la, ra))
		vp.PopRoots(2)
	}
	out := vp.AllocVector([]int{parts[0], parts[1], parts[2]})
	vp.PopRoots(5)
	return out
}
