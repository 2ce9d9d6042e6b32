package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// DMM (§4.1): "a dense-matrix by dense-matrix multiplication in which each
// matrix is 600 x 600." The paper reports near-ideal speedup (§4.2):
// abundant independent parallelism and excellent locality, because each
// output row's input row is built (and therefore physically placed) by the
// vproc that later consumes it.

// dmmBaseN is the default (scale=1) matrix dimension; the paper uses 600.
const dmmBaseN = 144

// dmmFlopNs is the modelled cost of one fused multiply-add.
const dmmFlopNs = 1

// RunDMM executes the benchmark; Check is an FNV fold of the product
// matrix.
func RunDMM(rt *core.Runtime, scale float64) Result {
	n := scaled(dmmBaseN, scale)
	var check uint64
	var t0, t1 int64
	rt.Run(func(vp *core.VProc) {
		// Shared row tables in the global heap.
		aRows := vp.AllocGlobalVectorN(n)
		aSlot := vp.PushRoot(aRows)
		bRows := vp.AllocGlobalVectorN(n)
		bSlot := vp.PushRoot(bRows)
		cRows := vp.AllocGlobalVectorN(n)
		cSlot := vp.PushRoot(cRows)

		// Build both inputs in parallel, row by row. The builder of
		// row i is (deterministically) the vproc whose compute task
		// will read A's row i, so under the local placement policy the
		// data lands on the consumer's node.
		vp.ParallelRange(0, n, rowGrain(n, rt.Cfg.NumVProcs),
			[]heap.Addr{vp.Root(aSlot), vp.Root(bSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for i := lo; i < hi; i++ {
					buildDMMRow(vp, env, 0, i, n, 3)
					buildDMMRow(vp, env, 1, i, n, 7)
				}
			})

		// Multiply (the timed region): one task block per group of
		// output rows.
		t0 = vp.Now()
		vp.ParallelRange(0, n, rowGrain(n, rt.Cfg.NumVProcs),
			[]heap.Addr{vp.Root(aSlot), vp.Root(bSlot), vp.Root(cSlot)},
			func(vp *core.VProc, lo, hi int, env core.Env) {
				for i := lo; i < hi; i++ {
					multiplyRow(vp, env, i, n)
				}
			})

		t1 = vp.Now()

		// Checksum the product.
		for i := 0; i < n; i++ {
			row := vp.LoadPtr(vp.Root(cSlot), i)
			for _, w := range vp.ReadBlock(row) {
				check = fnv1a(check, w)
			}
		}
		vp.PopRoots(3)
	})
	return Result{ElapsedNs: t1 - t0, Check: check, Stats: rt.TotalStats()}
}

// dmmElem is the deterministic input generator: element (i,j) of the matrix
// with salt s.
func dmmElem(i, j, s int) float64 {
	return float64((i*31+j*17+s)%97) / 97.0
}

// buildDMMRow allocates row i locally, fills it, and publishes it into the
// global row table held in env slot which.
func buildDMMRow(vp *core.VProc, env core.Env, which, i, n, salt int) {
	vals := make([]uint64, n)
	for j := 0; j < n; j++ {
		vals[j] = f2w(dmmElem(i, j, salt))
	}
	row := vp.AllocRaw(vals)
	rs := vp.PushRoot(row)
	vp.StoreGlobalPtr(env.Get(vp, which), i, rs)
	vp.PopRoots(1)
	vp.Compute(int64(n) * 2) // generation arithmetic
}

// multiplyRow computes C[i] = A[i] * B. The A row streams from memory (it
// was built by — and is homed near — the vproc that computes with it); B is
// reused by every row a vproc computes and fits in L3, so it is charged at
// cache cost ("excellent locality and almost no shared data", §4.2).
func multiplyRow(vp *core.VProc, env core.Env, i, n int) {
	a := vp.LoadPtr(env.Get(vp, 0), i)
	arow := append([]uint64(nil), vp.ReadBlock(a)...)
	out := make([]uint64, n)
	acc := make([]float64, n)
	for k := 0; k < n; k++ {
		b := vp.LoadPtr(env.Get(vp, 1), k)
		brow := vp.ReadBlockCached(b)
		aik := w2f(arow[k])
		for j := 0; j < n; j++ {
			acc[j] += float64(aik * w2f(brow[j]))
		}
		vp.Compute(int64(n) * dmmFlopNs)
	}
	for j := 0; j < n; j++ {
		out[j] = f2w(acc[j])
	}
	row := vp.AllocRaw(out)
	rs := vp.PushRoot(row)
	vp.StoreGlobalPtr(env.Get(vp, 2), i, rs)
	vp.PopRoots(1)
}

// dmmMaxObject is the largest object at a scale: a row, and each row table,
// holds n words.
func dmmMaxObject(scale float64) int { return scaled(dmmBaseN, scale) }

// rowGrain picks a block size that yields a few tasks per vproc.
func rowGrain(n, vprocs int) int {
	g := n / (vprocs * 4)
	if g < 1 {
		g = 1
	}
	return g
}

// DMMSeq is the sequential reference.
func DMMSeq(scale float64) uint64 {
	n := scaled(dmmBaseN, scale)
	var check uint64
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := dmmElem(i, k, 3)
			for j := 0; j < n; j++ {
				row[j] += float64(aik * dmmElem(k, j, 7))
			}
		}
		for j := 0; j < n; j++ {
			check = fnv1a(check, f2w(row[j]))
		}
	}
	return check
}
