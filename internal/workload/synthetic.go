package workload

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/heap"
)

// Synthetic (§4.1 mentions one synthetic benchmark alongside the five
// ported programs): a pure allocation-churn workload with a controllable
// survival fraction. Each task builds small trees; most die in the nursery
// (exercising minor collections), a fraction survives into a per-task list
// (exercising majors and promotions), and the shared tail forces global
// collections. Used by the ablation benchmarks, where the GC behaviour must
// dominate the measurement.
//
// The churn loop is a step machine (synMachine): nearly every allocation is
// the paper's fast path — bump, initialise, charge — which core's CostAlloc*
// forms run as an inline turn instead of a token handoff per object; the
// rest, where the allocation check traps, RunSteps reruns direct. Like
// barnes-hut's force traversal and smvm's row loop, it has no other form in
// production: the loop it transcribes, recursive and direct-style, is
// synChurnDirect in synthetic_direct_test.go, which TestStepKernelEquivalence
// holds it to bit for bit.

const (
	synBaseOps   = 6000 // tree builds per task at scale 1
	synTreeDepth = 4
	synKeepEvery = 20 // one tree in synKeepEvery survives
	synComputeNs = 40 // mutator work per tree
)

// RunSynthetic executes the benchmark; Check folds the surviving values.
func RunSynthetic(rt *core.Runtime, scale float64) Result { return runSynthetic(rt, scale, synChurn) }

// runSynthetic spawns one churn task per vproc; churn performs a task's
// allocation loop and returns a checksum of its survivors.
func runSynthetic(rt *core.Runtime, scale float64, churn func(vp *core.VProc, salt uint64, ops int) uint64) Result {
	ops := scaled(synBaseOps, scale)
	nv := rt.Cfg.NumVProcs
	checks := make([]uint64, nv)
	elapsed := rt.Run(func(vp *core.VProc) {
		perTask := ops / nv
		if perTask < 1 {
			perTask = 1
		}
		for t := 0; t < nv; t++ {
			t := t
			vp.Spawn(func(vp *core.VProc, _ core.Env) {
				checks[t] = churn(vp, uint64(t+1), perTask)
			})
		}
	})
	var check uint64
	for _, c := range checks {
		check = fnv1a(check, c)
	}
	return Result{ElapsedNs: elapsed, Check: check, Stats: rt.TotalStats()}
}

// synOp names the one charge a turn of the churn machine makes.
type synOp uint8

const (
	synLeaf     synOp = iota // allocate the next leaf of the tree being built
	synJoin                  // allocate the vector over the two subtrees on top of the root stack
	synCell                  // allocate the survivor-list cell (tree, list)
	synCompute               // the mutator work after each tree
	synReadCell              // fold: read list cell at
	synReadNode              // fold: read tree node at
)

// synMachine is one task's churn loop as a step machine: ops trees built
// post-order, every synKeepEvery-th consed onto the survivor list, then the
// list folded into check. The shadow root stack is the tree build's explicit
// stack, exactly as it is the recursion's: finished subtrees sit on it left
// to right, and since the tree is full, the place in the post-order is the
// leaf count alone — leaf k is followed by as many joins as k has trailing
// one bits. All of a turn's state lives here, so a turn allocates nothing on
// the host.
type synMachine struct {
	salt     uint64
	ops, i   int // trees to build, trees built
	listSlot int // root slot of the survivor list
	op       synOp

	leaf  int       // leaves of tree i allocated so far
	joins int       // vectors due over the subtree just placed
	word  [1]uint64 // payload of the next leaf
	slots [2]int    // root slots the next vector is built from

	check uint64
	at    heap.Addr            // object the next fold turn reads
	cell  []uint64             // payload of the list cell being folded
	sp    int                  // depth of sums
	sums  [synTreeDepth]synSum // the fold's path from the tree's root to at
}

// synSum is an inner tree node whose fold is in progress: sum(l)*3 + sum(r).
type synSum struct {
	right    heap.Addr
	left3    uint64 // sum(l)*3, once haveLeft
	haveLeft bool
}

// synChurn runs one task's churn machine to its end and returns the
// survivors' checksum.
func synChurn(vp *core.VProc, salt uint64, ops int) uint64 {
	m := &synMachine{salt: salt, ops: ops, listSlot: vp.PushRoot(0)}
	m.nextTree(vp)
	vp.RunSteps(m)
	vp.PopRoots(1)
	return m.check
}

// Step is one turn: one operation of the direct loop and its charge. Rooting
// a fresh object, which the direct loop does once the allocator's advance
// returns, is done before the charge is handed back; no collector tells the
// two apart, because a vproc's root stack is traced at its own safepoints
// only (Config.Debug's verifier reads it in between, and finds the object
// whole either way).
func (m *synMachine) Step(vp *core.VProc, direct bool) (int64, core.StepStatus) {
	switch m.op {
	case synLeaf, synJoin, synCell:
		a, c, ok := m.costAlloc(vp, direct)
		if !ok {
			return 0, core.StepDecline
		}
		m.placed(vp, a)
		return c, core.StepCharge
	case synCompute:
		m.i++
		m.nextTree(vp)
		return synComputeNs, core.StepCharge
	case synReadCell:
		if m.at == 0 {
			break // the list is folded
		}
		p, c := vp.CostReadBlock(m.at, 0)
		m.cell, m.at, m.op = p, heap.Addr(p[0]), synReadNode
		return c, core.StepCharge
	case synReadNode:
		a := vp.Resolve(m.at)
		if vp.HeaderID(a) != heap.IDRaw {
			p, c := vp.CostReadBlock(a, 0)
			m.sums[m.sp] = synSum{right: heap.Addr(p[1])}
			m.sp++
			m.at = heap.Addr(p[0])
			return c, core.StepCharge
		}
		// A leaf finishes a subtree: carry its sum up the path until a
		// node still owes its right subtree.
		sum, c := vp.CostLoadWord(a, 0)
		for ; m.sp > 0; m.sp-- {
			f := &m.sums[m.sp-1]
			if !f.haveLeft {
				f.left3, f.haveLeft, m.at = sum*3, true, f.right
				return c, core.StepCharge
			}
			sum += f.left3
		}
		m.check = fnv1a(m.check, sum)
		m.at, m.op = heap.Addr(m.cell[1]), synReadCell
		return c, core.StepCharge
	}
	return 0, core.StepDone
}

// nextTree starts tree i, or the fold once every tree is built. The leaves of
// a full tree rooted at v take consecutive values, left to right, from
// (v+1)<<depth - 1.
func (m *synMachine) nextTree(vp *core.VProc) {
	if m.i == m.ops {
		m.op, m.at = synReadCell, vp.Root(m.listSlot)
		return
	}
	m.op, m.leaf = synLeaf, 0
	m.word[0] = (m.salt+uint64(m.i)+1)<<synTreeDepth - 1
}

// synMaxObject is the largest object at any scale: a tree node, a vector of
// two children.
func synMaxObject(float64) int { return len(synMachine{}.slots) }

// costAlloc performs the allocation op names through its cost form.
func (m *synMachine) costAlloc(vp *core.VProc, direct bool) (heap.Addr, int64, bool) {
	if m.op == synLeaf {
		return vp.CostAllocRaw(m.word[:], direct)
	}
	return vp.CostAllocVector(m.slots[:], direct)
}

// placed moves on from the allocation of a, the object op asked for.
func (m *synMachine) placed(vp *core.VProc, a heap.Addr) {
	switch m.op {
	case synCell:
		vp.PopRoots(1)
		vp.SetRoot(m.listSlot, a)
		m.op = synCompute
		return
	case synLeaf:
		m.joins = bits.TrailingZeros(^uint(m.leaf))
		m.leaf++
		m.word[0]++
	case synJoin:
		vp.PopRoots(2)
		m.joins--
	}
	top := vp.PushRoot(a)
	switch {
	case m.joins > 0:
		m.op, m.slots = synJoin, [2]int{top - 1, top}
	case m.leaf < 1<<synTreeDepth:
		m.op = synLeaf
	case m.i%synKeepEvery == 0:
		m.op, m.slots = synCell, [2]int{top, m.listSlot}
	default:
		vp.PopRoots(1)
		m.op = synCompute
	}
}

// SyntheticSeq computes the reference checksum host-side.
func SyntheticSeq(nvprocs int, scale float64) uint64 {
	ops := scaled(synBaseOps, scale)
	perTask := ops / nvprocs
	if perTask < 1 {
		perTask = 1
	}
	var hostTree func(depth int, val uint64) uint64
	hostTree = func(depth int, val uint64) uint64 {
		if depth == 0 {
			return val
		}
		return hostTree(depth-1, val*2+1)*3 + hostTree(depth-1, val*2+2)
	}
	var check uint64
	for t := 0; t < nvprocs; t++ {
		salt := uint64(t + 1)
		var tc uint64
		// The list is folded newest-first.
		for i := ((perTask - 1) / synKeepEvery) * synKeepEvery; i >= 0; i -= synKeepEvery {
			tc = fnv1a(tc, hostTree(synTreeDepth, salt+uint64(i)))
		}
		check = fnv1a(check, tc)
	}
	return check
}
