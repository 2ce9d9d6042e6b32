package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// TestStepKernelEquivalence holds each of this package's three step kernels
// — barnes-hut's force traversal, smvm's row loop and the synthetic churn
// loop — to its direct-style reference, recursive or looped with one Advance
// per charge, which lives in a _direct_test.go file beside it: production has
// one form of each. The two runs go through the workload's seam and must
// agree bit for bit — virtual makespan, output checksum, and all runtime/GC
// statistics — across both machine presets and all three page-placement
// policies, the synthetic rows also under both global collectors. The heaps
// and the global trigger are shrunk until every kernel runs across minor,
// major and global collections and steals, which each row asserts — further
// still for synthetic, so that the cost-form allocators decline for every
// reason the workload can produce (full nursery, thief in the heap, global
// request, concurrent mark) as well as allocate. Quicksort and the server
// have no step kernel: their rows hold two runs of one configuration equal,
// the determinism every comparison here stands on.
func TestStepKernelEquivalence(t *testing.T) {
	topos := []*numa.Topology{numa.AMD48(), numa.Intel32()}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	// Each row runs at scale 0.1 on heaps of heapWords (chunks a quarter of
	// that): prod is what RunX runs, ref the reference through runX's seam.
	rows := []struct {
		name      string
		heapWords int
		prod, ref func(rt *core.Runtime) Result // ref nil: no reference, a rerun
	}{
		{"barnes-hut", 16 << 10,
			func(rt *core.Runtime) Result { return RunBarnesHut(rt, 0.1) },
			func(rt *core.Runtime) Result { return runBarnesHut(rt, 0.1, stepBody) }},
		{"smvm", 2 << 10,
			func(rt *core.Runtime) Result { return RunSMVM(rt, 0.1) },
			func(rt *core.Runtime) Result { return runSMVM(rt, 0.1, smvmRow) }},
		{"quicksort", 16 << 10, func(rt *core.Runtime) Result { return RunQuicksort(rt, 0.1) }, nil},
		{"server", 16 << 10, func(rt *core.Runtime) Result { return RunServer(rt, 0.1) }, nil},
	}
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
			covered := func(t *testing.T, o outcome) {
				t.Helper()
				s := o.res.Stats
				if s.MinorGCs == 0 || s.MajorGCs == 0 || o.gc.GlobalGCs == 0 || s.Steals == 0 {
					t.Errorf("%d minor, %d major, %d global collections and %d steals: want every phase under the machine",
						s.MinorGCs, s.MajorGCs, o.gc.GlobalGCs, s.Steals)
				}
			}
			for _, row := range rows {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.Name, pol, row.name), func(t *testing.T) {
					run := func(f func(rt *core.Runtime) Result) outcome {
						rt := core.MustNewRuntime(config(row.heapWords, row.heapWords/4))
						res := f(rt)
						return outcome{res, rt.Stats, rt.Eng.MaxClock()}
					}
					stepped := run(row.prod)
					if row.ref == nil {
						equal(t, stepped, run(row.prod))
						return
					}
					equal(t, stepped, run(row.ref))
					covered(t, stepped)
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
					covered(t, stepped)
					if bails == 0 || bails == allocs {
						t.Errorf("%d of %d allocations left the step machine: want both paths taken", bails, allocs)
					}
					if s := stepped.res.Stats; (s.MarkAssistWords > 0) != (gc == "concurrent") {
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

// TestStepKernelHandoffBudget pins what the step kernels are for: at p=8 on
// amd48 each run takes at most max token handoffs, a bound its direct-style
// reference exceeds several times over, so an edit that puts a direct
// Advance inside a kernel's loop fails here. Measured through the seams
// (production / reference): synthetic at scale 2, the benchmark's gc_churn
// shape, 81 / 403,745 handoffs; barnes-hut at scale 0.25 2,657 / 267,371;
// smvm at scale 0.25 2,623 / 36,753. The counts are exact for a given engine.
//
// maxInline bounds the inline turns where idle vprocs dominate them: with
// each idle sweep dozing until its next turn that can observe something,
// barnes-hut takes 271,989, against 368,735 when every sweep turn ran, so a
// change that stops them dozing fails here.
func TestStepKernelHandoffBudget(t *testing.T) {
	for _, row := range []struct {
		name           string
		run            func(rt *core.Runtime, scale float64) Result
		scale          float64
		max, maxInline int64
	}{
		{"synthetic", RunSynthetic, 2, 1_000, 0},
		{"barnes-hut", RunBarnesHut, 0.25, 5_000, 300_000},
		{"smvm", RunSMVM, 0.25, 5_000, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			rt := core.MustNewRuntime(core.DefaultConfig(numa.AMD48(), 8))
			row.run(rt, row.scale)
			st := rt.Eng.Stats()
			if st.Grants > row.max {
				t.Errorf("%d handoffs: want at most %d", st.Grants, row.max)
			}
			if row.maxInline > 0 && st.InlineTurns > row.maxInline {
				t.Errorf("%d inline turns: want at most %d", st.InlineTurns, row.maxInline)
			}
		})
	}
}

// TestLatencyInlineTurnBudget is TestStepKernelHandoffBudget's serving twin:
// the benchmark's latency point — p=48 on amd48 under GC pressure, 600
// clients of 6 requests at a 400 µs mean gap — takes at most maxInline inline
// turns. Its idle vprocs all have timers armed, so nearly every inline turn is
// an idle sweep's: 784,079 when each failed sweep ran every turn of its
// cycle, 15,189 with each sweep dozing until its next turn that can observe
// something. A change that stops them dozing fails here.
func TestLatencyInlineTurnBudget(t *testing.T) {
	const maxInline = 50_000
	rt := core.MustNewRuntime(heavyPressureConfig(48))
	opt := LatencyOptions{Clients: 600, Requests: 6, MeanGapNs: 400_000}
	if res := RunLatency(rt, opt); res.Check != LatencySeq(rt.Cfg.Seed, opt) {
		t.Fatalf("check %#x, want %#x", res.Check, LatencySeq(rt.Cfg.Seed, opt))
	}
	if st := rt.Eng.Stats(); st.InlineTurns > maxInline {
		t.Errorf("%d inline turns: want at most %d", st.InlineTurns, maxInline)
	}
}
