package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// TestStepKernelEquivalence is the ablation behind the step conversions in
// this package: with Config.NoStepKernels the barnes-hut force loop and the
// smvm row loop run in their original direct (Advance-based) style, and the
// results — virtual makespan, output checksum, and all runtime/GC statistics
// — must be bit-identical to the step-driven execution, across both machine
// presets and all three page-placement policies. Quicksort and the server
// have no step kernel (nor has the collector): their rows hold the flag to
// changing nothing there. The configuration shrinks the heaps and the global
// trigger so the kernels run across collections of every phase.
func TestStepKernelEquivalence(t *testing.T) {
	topos := []*numa.Topology{numa.AMD48(), numa.Intel32()}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	benches := []string{"barnes-hut", "smvm", "quicksort", "server"}
	for _, topo := range topos {
		for _, pol := range policies {
			for _, name := range benches {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.Name, pol, name), func(t *testing.T) {
					run := func(noStep bool) (Result, core.RTStats, int64) {
						cfg := core.DefaultConfig(topo, 8)
						cfg.Policy = pol
						cfg.LocalHeapWords = 16 << 10
						cfg.ChunkWords = 4 << 10
						cfg.GlobalTriggerWords = 8 * cfg.ChunkWords
						cfg.NoStepKernels = noStep
						rt := core.MustNewRuntime(cfg)
						spec, err := ByName(name)
						if err != nil {
							t.Fatal(err)
						}
						res := spec.Run(rt, 0.1)
						return res, rt.Stats, rt.Eng.MaxClock()
					}
					stepped, sGC, sClock := run(false)
					direct, dGC, dClock := run(true)
					if stepped != direct {
						t.Errorf("results diverged:\n step:   %+v\n direct: %+v", stepped, direct)
					}
					if sGC != dGC {
						t.Errorf("GC stats diverged:\n step:   %+v\n direct: %+v", sGC, dGC)
					}
					if sClock != dClock {
						t.Errorf("makespan diverged: step %d, direct %d", sClock, dClock)
					}
				})
			}
		}
	}
}
