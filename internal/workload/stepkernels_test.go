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
// changing nothing there. The synthetic churn loop has no direct form in
// production at all: its rows compare the step machine against the test-only
// synChurnDirect, under both global collectors. The configuration shrinks the
// heaps and the global trigger so the kernels run across collections of every
// phase — further still for synthetic, so that the cost-form allocators
// decline for every reason the workload can produce (full nursery, thief in
// the heap, global request, concurrent mark) as well as allocate.
func TestStepKernelEquivalence(t *testing.T) {
	topos := []*numa.Topology{numa.AMD48(), numa.Intel32()}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	benches := []string{"barnes-hut", "smvm", "quicksort", "server"}
	for _, topo := range topos {
		for _, pol := range policies {
			config := func(heapWords, chunkWords int) core.Config {
				cfg := core.DefaultConfig(topo, 8)
				cfg.Policy = pol
				cfg.LocalHeapWords = heapWords
				cfg.ChunkWords = chunkWords
				cfg.GlobalTriggerWords = 8 * cfg.ChunkWords
				return cfg
			}
			type outcome struct {
				res   Result
				gc    core.RTStats
				clock int64
			}
			equal := func(t *testing.T, stepped, direct outcome) {
				t.Helper()
				if stepped.res != direct.res {
					t.Errorf("results diverged:\n step:   %+v\n direct: %+v", stepped.res, direct.res)
				}
				if stepped.gc != direct.gc {
					t.Errorf("GC stats diverged:\n step:   %+v\n direct: %+v", stepped.gc, direct.gc)
				}
				if stepped.clock != direct.clock {
					t.Errorf("makespan diverged: step %d, direct %d", stepped.clock, direct.clock)
				}
			}
			for _, name := range benches {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.Name, pol, name), func(t *testing.T) {
					run := func(noStep bool) outcome {
						cfg := config(16<<10, 4<<10)
						cfg.NoStepKernels = noStep
						rt := core.MustNewRuntime(cfg)
						spec, err := ByName(name)
						if err != nil {
							t.Fatal(err)
						}
						res := spec.Run(rt, 0.1)
						return outcome{res, rt.Stats, rt.Eng.MaxClock()}
					}
					equal(t, run(false), run(true))
				})
			}
			for _, gc := range []string{"stw", "concurrent"} {
				t.Run(fmt.Sprintf("%s/%s/synthetic/%s", topo.Name, pol, gc), func(t *testing.T) {
					run := func(churn func(vp *core.VProc, salt uint64, ops int) uint64) outcome {
						cfg := config(2<<10, 512)
						cfg.ConcurrentGlobal = gc == "concurrent"
						cfg.Debug = true
						rt := core.MustNewRuntime(cfg)
						res := runSynthetic(rt, 0.5, churn)
						return outcome{res, rt.Stats, rt.Eng.MaxClock()}
					}
					allocs, bails := 0, 0
					stepped := run(func(vp *core.VProc, salt uint64, ops int) uint64 {
						m := newSynMachine(vp, salt, ops)
						check := m.run()
						allocs += synAllocs(ops)
						bails += m.bails
						return check
					})
					equal(t, stepped, run(synChurnDirect))
					if bails == 0 || bails == allocs {
						t.Errorf("%d of %d allocations left the step machine: want both paths taken", bails, allocs)
					}
					s := stepped.res.Stats
					if s.MinorGCs == 0 || s.MajorGCs == 0 || stepped.gc.GlobalGCs == 0 || s.Steals == 0 {
						t.Errorf("%d minor, %d major, %d global collections and %d steals: want every phase under the machine",
							s.MinorGCs, s.MajorGCs, stepped.gc.GlobalGCs, s.Steals)
					}
					if (s.MarkAssistWords > 0) != (gc == "concurrent") {
						t.Errorf("%d words of mark assists under the %s collector", s.MarkAssistWords, gc)
					}
				})
			}
		}
	}
}

// synAllocs is how many objects one churn task of ops trees allocates: the
// nodes of each full tree and a list cell for every synKeepEvery-th.
func synAllocs(ops int) int {
	return ops*(2<<synTreeDepth-1) + (ops+synKeepEvery-1)/synKeepEvery
}

// TestSyntheticHandoffBudget pins what the churn machine is for: at p=8,
// scale 2 (the benchmark's gc_churn shape) the whole run takes fewer token
// handoffs than a quarter of its allocations, where the direct loop took more
// than one per allocation. The count is exact for a given engine.
func TestSyntheticHandoffBudget(t *testing.T) {
	const nv, scale = 8, 2
	rt := core.MustNewRuntime(core.DefaultConfig(numa.AMD48(), nv))
	RunSynthetic(rt, scale)
	allocs := int64(nv * synAllocs(scaled(synBaseOps, scale)/nv))
	if grants := rt.Eng.Stats().Grants; grants*4 > allocs {
		t.Errorf("%d handoffs for %d allocations: want at most a quarter", grants, allocs)
	}
}
