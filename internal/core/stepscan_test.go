package core

import "testing"

// TestStepScanEquivalence proves the step-driven global collectors
// (stepscan.go) are schedule-identical to the direct-style loops they
// transcribe: a promotion-heavy run with spawned (stealable) tasks and many
// global collections must produce the same makespan, the same surviving
// graph, and bit-identical runtime statistics under both execution styles.
// Debug mode keeps the whole-heap verifier on after every phase. Both
// collectors run: the concurrent one adds the nursery span of the root walk
// and the closing window's drain to the step-vs-direct comparison.
func TestStepScanEquivalence(t *testing.T) {
	type outcome struct {
		makespan int64
		sum      uint64
		vp       VPStats
		rt       RTStats
	}
	run := func(concurrent, noStep bool) outcome {
		cfg := stressConfig(t, 4)
		cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
		cfg.ConcurrentGlobal = concurrent
		cfg.NoStepKernels = noStep
		rt := MustNewRuntime(cfg)
		var out outcome
		out.makespan = rt.Run(func(vp *VProc) {
			a := buildTree(vp, 6, 5)
			s := vp.PushRoot(a)
			for i := 0; i < 8; i++ {
				vp.PromoteRoot(s)
				// A stealable churn task per round so queued/stolen
				// environments participate in the root walks.
				task := vp.Spawn(func(vp *VProc, env Env) {
					churn(vp, 400, 5)
				})
				b := buildTree(vp, 6, uint64(i))
				bs := vp.PushRoot(b)
				vp.PromoteRoot(bs)
				vp.PopRoots(1)
				churn(vp, 1200, 6)
				vp.Join(task)
			}
			out.sum = checksumTree(vp, vp.Root(s))
			vp.PopRoots(1)
		})
		out.vp = rt.TotalStats()
		out.rt = rt.Stats
		if rt.Stats.GlobalGCs == 0 {
			t.Fatal("stress run triggered no global collections; the scan machines went unexercised")
		}
		return out
	}
	for _, concurrent := range []bool{false, true} {
		stepped := run(concurrent, false)
		direct := run(concurrent, true)
		if stepped != direct {
			t.Errorf("concurrent=%v: step-driven and direct global collection diverged:\n step:   %+v\n direct: %+v", concurrent, stepped, direct)
		}
	}
}
