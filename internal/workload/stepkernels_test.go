package workload

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// TestStepKernelEquivalence holds each of this package's step kernels —
// barnes-hut's force traversal, smvm's row loop, the synthetic churn loop and
// the latency harness's three continuation chains — to its direct-style
// reference, recursive or looped with one Advance per charge, which lives in
// a _direct_test.go file beside it: production has one form of each. The two
// runs go through the workload's seam and must agree bit for bit — virtual
// makespan, output checksum, and all runtime/GC statistics — across both
// machine presets and all three page-placement policies, the synthetic and
// latency rows also under both global collectors. The heaps and the global
// trigger are shrunk until every kernel runs across minor, major and global
// collections and steals, which each row asserts — further still for
// synthetic and latency, so that the cost forms decline for every reason the
// workload can produce (full nursery, thief in the heap, global request,
// concurrent mark; for the chains also a chunk fetch and a busy owner heap)
// as well as run. Quicksort and the server have no step kernel: their rows
// hold two runs of one configuration equal, the determinism every comparison
// here stands on.
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
				return stepKernelConfig(topo, pol, heapWords, chunkWords)
			}
			equal := func(t *testing.T, stepped, direct stepOutcome) {
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
			covered := func(t *testing.T, o stepOutcome) {
				t.Helper()
				s := o.res.Stats
				if s.MinorGCs == 0 || s.MajorGCs == 0 || o.gc.GlobalGCs == 0 || s.Steals == 0 {
					t.Errorf("%d minor, %d major, %d global collections and %d steals: want every phase under the machine",
						s.MinorGCs, s.MajorGCs, o.gc.GlobalGCs, s.Steals)
				}
			}
			for _, gc := range []string{"stw", "concurrent"} {
				t.Run(fmt.Sprintf("%s/%s/latency/%s", topo.Name, pol, gc), func(t *testing.T) {
					stepKernelLatencyRow(t, config(2<<10, 512), gc == "concurrent", equal)
				})
			}
			for _, row := range rows {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.Name, pol, row.name), func(t *testing.T) {
					run := func(f func(rt *core.Runtime) Result) stepOutcome {
						rt := core.MustNewRuntime(config(row.heapWords, row.heapWords/4))
						res := f(rt)
						return stepOutcome{res, rt.Stats, rt.Eng.MaxClock()}
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
					// The churn's one cost form is the allocation, so its
					// declines are the allocations rerun direct.
					run := func(churn func(vp *core.VProc, salt uint64, ops int) uint64) (stepOutcome, int64) {
						cfg := config(2<<10, 512)
						cfg.ConcurrentGlobal = gc == "concurrent"
						cfg.Debug = true
						rt := core.MustNewRuntime(cfg)
						res := runSynthetic(rt, 0.5, churn)
						d := rt.StepDeclines()
						return stepOutcome{res, rt.Stats, rt.Eng.MaxClock()}, d.Timer + d.Thief + d.GlobalGC + d.Mark + d.Nursery
					}
					allocs := 0
					stepped, reruns := run(func(vp *core.VProc, salt uint64, ops int) uint64 {
						allocs += synAllocs(ops)
						return synChurn(vp, salt, ops)
					})
					direct, directReruns := run(synChurnDirect)
					equal(t, stepped, direct)
					covered(t, stepped)
					if reruns == 0 || reruns == int64(allocs) || directReruns != 0 {
						t.Errorf("%d of %d allocations left the step machine (%d of the direct loop's): want both paths taken", reruns, allocs, directReruns)
					}
					if s := stepped.res.Stats; (s.MarkAssistWords > 0) != (gc == "concurrent") {
						t.Errorf("%d words of mark assists under the %s collector", s.MarkAssistWords, gc)
					}
				})
			}
		}
	}
}

// stepKernelConfig is a TestStepKernelEquivalence run's configuration: 8
// vprocs on topo under pol, with heaps of heapWords, chunks of chunkWords and
// a global trigger of eight chunks.
func stepKernelConfig(topo *numa.Topology, pol mempage.Policy, heapWords, chunkWords int) core.Config {
	cfg := core.DefaultConfig(topo, 8)
	cfg.Policy = pol
	cfg.LocalHeapWords = heapWords
	cfg.ChunkWords = chunkWords
	cfg.GlobalTriggerWords = 8 * cfg.ChunkWords
	return cfg
}

// latRowOptions is the latency row's harness shape.
var latRowOptions = LatencyOptions{Clients: 80, Requests: 6, MeanGapNs: 20_000}

// stepKernelLatencyRow is TestStepKernelEquivalence's latency row on cfg:
// the step chains against latDirectChains, with Debug's heap verifier on.
// Beyond the results, statistics and makespan, the two runs' GC event
// sequences — what gctrace -events prints — must be equal. The stepped run
// must take every decline the chains can meet — a full nursery, a global
// request (and under the concurrent collector a mark, and a mark's shade), a
// thief in the heap, a chunk fetch, a busy owner heap — and send both to
// parked receivers and onto pending chains.
func stepKernelLatencyRow(t *testing.T, cfg core.Config, concurrent bool, equal func(*testing.T, stepOutcome, stepOutcome)) {
	t.Helper()
	opt := latRowOptions
	type run struct {
		o        stepOutcome
		lat      LatencyResult
		events   []core.GCEvent
		declines core.StepDeclines
	}
	measure := func(chains latChains) run {
		cfg.ConcurrentGlobal = concurrent
		cfg.Debug = true
		rt := core.MustNewRuntime(cfg)
		var r run
		rt.SetTracer(func(ev core.GCEvent) { r.events = append(r.events, ev) })
		r.lat = runLatency(rt, opt, chains)
		r.o = stepOutcome{r.lat.Result, rt.Stats, rt.Eng.MaxClock()}
		r.declines = rt.StepDeclines()
		return r
	}
	stepped, direct := measure(latStepChains), measure(latDirectChains)
	equal(t, stepped.o, direct.o)
	if stepped.lat != direct.lat {
		t.Errorf("latencies diverged:\n step:   %+v\n direct: %+v", stepped.lat.Latencies, direct.lat.Latencies)
	}
	if !slices.Equal(stepped.events, direct.events) {
		t.Errorf("GC event sequences diverged: %d step events, %d direct", len(stepped.events), len(direct.events))
	}
	if want := LatencySeq(cfg.Seed, opt); stepped.lat.Check != want {
		t.Errorf("check %#x, want %#x", stepped.lat.Check, want)
	}
	s, d := stepped.lat.Stats, stepped.declines
	if s.MinorGCs == 0 || stepped.o.gc.GlobalGCs == 0 || s.Steals == 0 || s.MajorGCs == 0 && !concurrent || s.MarkAssistWords == 0 && concurrent {
		t.Errorf("%d minor, %d major, %d global collections, %d words of mark assists and %d steals: want every phase under the machine",
			s.MinorGCs, s.MajorGCs, stepped.o.gc.GlobalGCs, s.MarkAssistWords, s.Steals)
	}
	if d.Nursery == 0 || d.GlobalGC == 0 || d.Thief == 0 || d.Chunk == 0 || d.OwnerBusy == 0 || concurrent && (d.Mark == 0 || d.Shade == 0) {
		t.Errorf("declines %+v: want a full nursery, a global request, a thief, a chunk fetch and a busy owner heap, and under the concurrent collector a mark and a shade", d)
	}
	if s.ChanHandoffs == 0 || s.ChanHandoffs == s.ChanSends {
		t.Errorf("%d of %d sends handed to a parked receiver: want both a parked and a pending one", s.ChanHandoffs, s.ChanSends)
	}
	if direct.declines != (core.StepDeclines{}) {
		t.Errorf("the direct chains took cost forms: %+v", direct.declines)
	}
}

// stepOutcome is what TestStepKernelEquivalence compares of a run.
type stepOutcome struct {
	res   Result
	gc    core.RTStats
	clock int64
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
// smvm at scale 0.25 2,623 / 36,753. Two rows run elsewhere: the benchmark's
// latency point (TestLatencyInlineTurnBudget's, p=48 under GC pressure), whose
// chains take 46,845 handoffs as step tasks in the idle sweeps against
// 103,542 direct-style, and quicksort at scale 0.25, which has no step kernel
// and takes 5,552. Those two are bounded at their count plus 10 % (the
// latency row at 48,027's, its count while a declined operation finished on
// the vproc's stack). The counts are exact for a given engine.
//
// maxInline bounds the inline turns where idle vprocs dominate them: with
// each idle sweep dozing until its next turn that can observe something,
// barnes-hut takes 271,989, against 368,735 when every sweep turn ran, so a
// change that stops them dozing fails here.
func TestStepKernelHandoffBudget(t *testing.T) {
	latency := func(rt *core.Runtime, _ float64) Result {
		return RunLatency(rt, LatencyOptions{Clients: 600, Requests: 6, MeanGapNs: 400_000}).Result
	}
	for _, row := range []struct {
		name           string
		run            func(rt *core.Runtime, scale float64) Result
		scale          float64
		max, maxInline int64
		cfg            core.Config // zero: amd48 at p=8
	}{
		{"synthetic", RunSynthetic, 2, 1_000, 0, core.Config{}},
		{"barnes-hut", RunBarnesHut, 0.25, 5_000, 300_000, core.Config{}},
		{"smvm", RunSMVM, 0.25, 5_000, 0, core.Config{}},
		{"quicksort", RunQuicksort, 0.25, 6_100, 0, core.Config{}},
		{"latency", latency, 1, 52_800, 0, heavyPressureConfig(48)},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			if cfg.NumVProcs == 0 {
				cfg = core.DefaultConfig(numa.AMD48(), 8)
			}
			rt := core.MustNewRuntime(cfg)
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
// clients of 6 requests at a 400 µs mean gap — takes at most maxInline idle
// inline turns. Its idle vprocs all have timers armed, so nearly every idle
// turn is a sweep's: 784,079 when each failed sweep ran every turn of its
// cycle, 15,189 with each sweep dozing until its next turn that can observe
// something, 8,497 since the sweeps also run the chains' step tasks. Those
// tasks' turns (67,465) are counted apart (Runtime.StepTaskTurns) and left
// out of the bound. A change that stops the sweeps dozing fails here.
func TestLatencyInlineTurnBudget(t *testing.T) {
	const maxInline = 50_000
	rt := core.MustNewRuntime(heavyPressureConfig(48))
	opt := LatencyOptions{Clients: 600, Requests: 6, MeanGapNs: 400_000}
	if res := RunLatency(rt, opt); res.Check != LatencySeq(rt.Cfg.Seed, opt) {
		t.Fatalf("check %#x, want %#x", res.Check, LatencySeq(rt.Cfg.Seed, opt))
	}
	if st := rt.Eng.Stats(); st.InlineTurns-rt.StepTaskTurns() > maxInline {
		t.Errorf("%d inline turns, %d of them step-task turns: want at most %d idle ones", st.InlineTurns, rt.StepTaskTurns(), maxInline)
	}
}
