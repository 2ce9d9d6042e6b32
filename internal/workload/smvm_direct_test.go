package workload

import "repro/internal/core"

// The smvm row kernel in direct style — one Advance per charge — which
// smvmDots.rowStepped transcribes: the reference that TestStepKernelEquivalence
// compares the machine against.

// smvmRow computes output element r: the dot product of row r with the
// shared vector.
func smvmRow(vp *core.VProc, env core.Env, r int) {
	row := vp.LoadPtr(env.Get(vp, 0), r)
	data := append([]uint64(nil), vp.ReadBlock(row)...)
	spine := env.Get(vp, 1)
	var acc float64
	for k := 0; k < smvmRowLen; k++ {
		col := int(data[2*k])
		blk := vp.LoadPtr(spine, col/vecBlockWords)
		acc += w2f(data[2*k+1]) * w2f(vp.LoadWord(blk, col%vecBlockWords))
	}
	vp.Compute(smvmRowLen * 2)
	smvmPublish(vp, env, r, acc)
}
