package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// SMVM (§4.1): "a sparse-matrix by dense-vector multiplication. The matrix
// contains 1,091,362 elements and the vector 16,614." The defining feature
// (§4.2-4.3) is the small shared vector: under the local placement policy
// it lives entirely on its builder's node, so at high thread counts every
// other node's reads contend for that node's memory links — the benchmark
// that scales worst on the AMD machine and the one case where interleaved
// placement wins past 24 threads.

const (
	// smvmBaseNNZ is the default nonzero count; the paper uses 1,091,362.
	smvmBaseNNZ = 64 << 10
	// smvmBaseCols is the default vector length; the paper uses 16,614.
	smvmBaseCols = 4096
	// smvmRowLen is the fixed nonzeros per row (band structure).
	smvmRowLen = 32
)

// RunSMVM executes the benchmark; Check is an FNV fold of the result
// vector.
func RunSMVM(rt *core.Runtime, scale float64) Result {
	return runSMVM(rt, scale, new(smvmDots).rowStepped)
}

// runSMVM runs the benchmark with row as the multiply kernel: row computes
// output element r from the row table (env 0) and the vector (env 1) into
// the output table (env 2).
func runSMVM(rt *core.Runtime, scale float64, row func(vp *core.VProc, env core.Env, r int)) Result {
	nnz := scaled(smvmBaseNNZ, scale)
	cols := scaled(smvmBaseCols, scale)
	rows := nnz / smvmRowLen
	var check uint64
	var t0, t1 int64
	rt.Run(func(vp *core.VProc) {
		// The dense vector: built by vproc 0 and promoted as one
		// object graph — under the local policy its pages all land on
		// vproc 0's node, exactly the hot spot the paper describes.
		// (It is chunk-sized raw blocks under a vector spine.)
		vecSlot := vp.PushRoot(buildDenseVector(vp, cols))

		// Row tables: col-index and value blocks per row group, built
		// in parallel so the matrix itself is distributed.
		rowTab := vp.AllocGlobalVectorN(rows)
		rowSlot := vp.PushRoot(rowTab)
		outTab := vp.AllocGlobalVectorN(rows)
		outSlot := vp.PushRoot(outTab)

		grain := rowGrain(rows, rt.Cfg.NumVProcs)
		vp.ParallelRange(0, rows, grain,
			[]heap.Addr{vp.Root(rowSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for r := lo; r < hi; r++ {
					buildSMVMRow(vp, env, r, cols)
				}
			})

		// Multiply (the timed region).
		t0 = vp.Now()
		vp.ParallelRange(0, rows, grain,
			[]heap.Addr{vp.Root(rowSlot), vp.Root(vecSlot), vp.Root(outSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for r := lo; r < hi; r++ {
					row(vp, env, r)
				}
			})

		t1 = vp.Now()

		for r := 0; r < rows; r++ {
			cell := vp.LoadPtr(vp.Root(outSlot), r)
			check = fnv1a(check, vp.LoadWord(cell, 0))
		}
		vp.PopRoots(3)
	})
	return Result{ElapsedNs: t1 - t0, Check: check, Stats: rt.TotalStats()}
}

// smvmMaxObject is the largest object at a scale: the row and output
// tables hold a word per row, the vector's spine a word per block, a vector
// block at most vecBlockWords and a row 2*smvmRowLen.
func smvmMaxObject(scale float64) int {
	cols := scaled(smvmBaseCols, scale)
	rows := scaled(smvmBaseNNZ, scale) / smvmRowLen
	return max(rows, (cols+vecBlockWords-1)/vecBlockWords, min(cols, vecBlockWords), 2*smvmRowLen)
}

// vecBlockWords is the leaf size of the dense vector.
const vecBlockWords = 512

// buildDenseVector builds the shared vector as a spine of raw blocks and
// promotes the whole structure.
func buildDenseVector(vp *core.VProc, cols int) heap.Addr {
	blocks := (cols + vecBlockWords - 1) / vecBlockWords
	spineSlot := vp.PushRoot(vp.AllocGlobalVectorN(blocks))
	buf := make([]uint64, 0, vecBlockWords)
	for b := 0; b < blocks; b++ {
		buf = buf[:0]
		for j := b * vecBlockWords; j < (b+1)*vecBlockWords && j < cols; j++ {
			buf = append(buf, f2w(vecElem(j)))
		}
		blk := vp.AllocRaw(buf)
		bs := vp.PushRoot(blk)
		vp.StoreGlobalPtr(vp.Root(spineSlot), b, bs)
		vp.PopRoots(1)
	}
	out := vp.Root(spineSlot)
	vp.PopRoots(1)
	return out
}

// vecElem generates vector element j.
func vecElem(j int) float64 { return float64((j*13+5)%89) / 89.0 }

// smvmCol gives the deterministic column of nonzero k in row r: a band
// around the diagonal plus a scattered tail, so vector reads touch many
// pages.
func smvmCol(r, k, cols int) int {
	if k < smvmRowLen/4 {
		return (r*3 + k) % cols
	}
	return (r*7919 + k*104729) % cols
}

// smvmVal generates the matrix value.
func smvmVal(r, k int) float64 { return float64((r+k*29)%53)/53.0 + 0.25 }

// buildSMVMRow builds row r's column/value blocks and publishes them.
func buildSMVMRow(vp *core.VProc, env core.Env, r, cols int) {
	words := make([]uint64, 2*smvmRowLen)
	for k := 0; k < smvmRowLen; k++ {
		words[2*k] = uint64(smvmCol(r, k, cols))
		words[2*k+1] = f2w(smvmVal(r, k))
	}
	row := vp.AllocRaw(words)
	rs := vp.PushRoot(row)
	vp.StoreGlobalPtr(env.Get(vp, 0), r, rs)
	vp.PopRoots(1)
	vp.Compute(smvmRowLen * 2)
}

// smvmPublish stores output element r, acc, as a 1-word raw object in the
// output table (env 2). It allocates — a safepoint — so every row kernel
// runs it in direct style once its loads are done.
func smvmPublish(vp *core.VProc, env core.Env, r int, acc float64) {
	rs := vp.PushRoot(vp.AllocRaw([]uint64{f2w(acc)}))
	vp.StoreGlobalPtr(env.Get(vp, 2), r, rs)
	vp.PopRoots(1)
}

// smvmDots is the multiply kernel RunSMVM runs: each vproc's row state,
// reused across the rows it computes, so that a row allocates nothing in its
// loads. A vproc runs one row at a time, and the row's words are copied out
// before smvmPublish allocates.
type smvmDots []smvmDot

// Row machine phases: the row-pointer load, the row read, then per nonzero
// the vector block's pointer load and the element load, and the compute.
const (
	srLoadRow = iota
	srReadRow
	srLoadBlk
	srLoadX
	srCompute
	srDone
)

// smvmDot computes one output element as a step-function state machine: the
// dot product of row r with the shared vector. The row data streams from its
// builder's node (local under the default policy); every vector element is a
// dependent load against the vector's home node — the shared hot spot. The
// loads run as step turns, so those of many interleaved vprocs cost inline
// turns instead of token handoffs. Its direct-style reference, one Advance
// per charge, is smvmRow in smvm_direct_test.go.
type smvmDot struct {
	env        core.Env
	r          int
	phase      int
	row, spine heap.Addr
	blk        heap.Addr
	data       []uint64 // the row, copied out: the publish allocates
	acc        float64
	k          int
}

// rowStepped computes output element r and publishes it.
func (ds *smvmDots) rowStepped(vp *core.VProc, env core.Env, r int) {
	if len(*ds) == 0 {
		*ds = make(smvmDots, len(vp.Runtime().VProcs))
	}
	m := &(*ds)[vp.ID]
	m.env, m.r, m.phase = env, r, srLoadRow
	m.data, m.acc, m.k = m.data[:0], 0, 0
	vp.RunSteps(m)
	smvmPublish(vp, env, r, m.acc)
}

// Step is one turn of the row. No turn declines.
func (m *smvmDot) Step(vp *core.VProc, _ bool) (int64, core.StepStatus) {
	switch m.phase {
	case srLoadRow:
		var c int64
		m.row, c = vp.CostLoadPtr(m.env.Get(vp, 0), m.r)
		m.phase = srReadRow
		return c, core.StepCharge
	case srReadRow:
		p, c := vp.CostReadBlock(m.row, 0)
		m.data = append(m.data, p...)
		m.spine = m.env.Get(vp, 1)
		m.phase = srLoadBlk
		return c, core.StepCharge
	case srLoadBlk:
		col := int(m.data[2*m.k])
		var c int64
		m.blk, c = vp.CostLoadPtr(m.spine, col/vecBlockWords)
		m.phase = srLoadX
		return c, core.StepCharge
	case srLoadX:
		col := int(m.data[2*m.k])
		w, c := vp.CostLoadWord(m.blk, col%vecBlockWords)
		m.acc += float64(w2f(m.data[2*m.k+1]) * w2f(w))
		m.k++
		if m.k < smvmRowLen {
			m.phase = srLoadBlk
		} else {
			m.phase = srCompute
		}
		return c, core.StepCharge
	case srCompute:
		m.phase = srDone
		return smvmRowLen * 2, core.StepCharge
	}
	return 0, core.StepDone
}

// SMVMSeq is the sequential reference.
func SMVMSeq(scale float64) uint64 {
	nnz := scaled(smvmBaseNNZ, scale)
	cols := scaled(smvmBaseCols, scale)
	rows := nnz / smvmRowLen
	var check uint64
	for r := 0; r < rows; r++ {
		var acc float64
		for k := 0; k < smvmRowLen; k++ {
			acc += float64(smvmVal(r, k) * vecElem(smvmCol(r, k, cols)))
		}
		// The parallel version stores each scalar in a 1-word raw
		// object; the checksum folds the payload word.
		check = fnv1a(check, f2w(acc))
	}
	return check
}
