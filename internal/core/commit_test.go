package core_test

// Budget tests for lazily committed local heaps and chunks: construction must
// stay cheap, a short run must commit only what it touches, and a run that
// collects must commit only what its heaps' two windows have had to hold.

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// TestNewRuntimeAllocBudget bounds the host memory NewRuntime allocates. Fully
// committed local heaps alone were 25 MB on amd48x48 and 2.1 GB on
// rack4096x4096; per-transfer-size cost tables in numa.Machine were 1.6 MB
// on either.
func TestNewRuntimeAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		topo     *numa.Topology
		budgetMB float64
	}{
		{numa.AMD48(), 0.25},
		{numa.Rack4096(), 16},
	} {
		cfg := core.DefaultConfig(tc.topo, tc.topo.NumCores())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := core.MustNewRuntime(cfg)
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if mb >= tc.budgetMB {
			t.Errorf("%s x %d: NewRuntime allocated %.2f MB, budget %.2f MB", tc.topo.Name, cfg.NumVProcs, mb, tc.budgetMB)
		}
		if n := rt.Space.CommittedWords(heap.RegionLocal); n != 0 {
			t.Errorf("%s: %d local-heap words committed before the first allocation", tc.topo.Name, n)
		}
		if n := rt.Space.CommittedWords(heap.RegionChunk); n != 0 {
			t.Errorf("%s: %d chunk words committed before the first allocation", tc.topo.Name, n)
		}
	}
}

// TestShortRunCommitsLittle: a quarter-scale dmm on amd48x48 allocates a few
// thousand words and never collects, so it must leave almost all of its 3.1 M
// local-heap words uncommitted, and almost all the words of the chunks it
// creates: most of them end holding a few hundred words of 16 K.
func TestShortRunCommitsLittle(t *testing.T) {
	spec, err := workload.ByName("dmm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(numa.AMD48(), 48)
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, 0.25)
	if res.Stats.MinorGCs != 0 {
		t.Fatalf("dmm at scale 0.25 ran %d minor collections; the test needs a run that never collects", res.Stats.MinorGCs)
	}
	committed, total := rt.Space.CommittedWords(heap.RegionLocal), cfg.NumVProcs*cfg.LocalHeapWords
	if committed == 0 || committed*20 >= total {
		t.Errorf("dmm committed %d of %d local-heap words, want more than none and under 5 %%", committed, total)
	}
	committed, total = rt.Space.CommittedWords(heap.RegionChunk), rt.Chunks.Created*cfg.ChunkWords
	if committed == 0 || committed*20 >= total {
		t.Errorf("dmm committed %d of the %d words of the chunks it created, want more than none and under 5 %%", committed, total)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("verifier on partially committed heaps: %v", err)
	}
}

// highWater records, for every vproc of a runtime, the most its local heap's
// old area and nursery have held: OldTop after each minor collection, and the
// words bumped between two collections (Stats.AllocWords counts exactly
// those). Call done after the run.
type highWater struct {
	rt           *core.Runtime
	old, nursery []int
	allocAtReset []int64
}

func trackHighWater(rt *core.Runtime) *highWater {
	n := len(rt.VProcs)
	hw := &highWater{rt: rt, old: make([]int, n), nursery: make([]int, n), allocAtReset: make([]int64, n)}
	rt.SetTracer(func(ev core.GCEvent) {
		if ev.Kind == core.EvMinor || ev.Kind == core.EvMajor {
			hw.observe(rt.VProcs[ev.VProc])
		}
	})
	return hw
}

// observe folds in a vproc's heap just after a collection reset its nursery,
// or at the end of the run.
func (hw *highWater) observe(vp *core.VProc) {
	i := vp.ID
	hw.old[i] = max(hw.old[i], vp.Local.OldTop)
	hw.nursery[i] = max(hw.nursery[i], int(vp.Stats.AllocWords-hw.allocAtReset[i]))
	hw.allocAtReset[i] = vp.Stats.AllocWords
}

func (hw *highWater) done() {
	for _, vp := range hw.rt.VProcs {
		hw.observe(vp)
	}
}

// windowBudget is the most a local region of size words may commit whose old
// area and nursery have held at most old and nursery words: each window the
// first step of 1/128, 1/32 or 1/8 of the region that holds its high-water
// mark, or the whole region once one of them outgrows the last step.
func windowBudget(size, old, nursery int) int {
	step := func(need int) int {
		for _, f := range []int{128, 32, 8} {
			if need <= size/f {
				return size / f
			}
		}
		return size
	}
	return min(size, step(old)+step(nursery))
}

// checkCommitBudget fails the test for every local region that commits more
// than windowBudget over its high-water marks.
func checkCommitBudget(t *testing.T, name string, hw *highWater) {
	t.Helper()
	for _, vp := range hw.rt.VProcs {
		r := vp.Local.Region
		if got, budget := r.Committed(), windowBudget(r.Size, hw.old[vp.ID], hw.nursery[vp.ID]); got > budget {
			t.Errorf("%s: vproc %d commits %d of %d words, over the %d its high-water marks (old area %d, nursery %d) allow",
				name, vp.ID, got, r.Size, budget, hw.old[vp.ID], hw.nursery[vp.ID])
		}
	}
}

// TestCollectedHeapsCommitTheirHighWater: a vproc that has collected keeps
// what its two windows have had to hold, not its whole region for having
// collected. The synthetic program collects on every vproc, with the heap
// verifier and the poisoning of abandoned arrays on; its nurseries fill, so
// its regions end committed whole, as their high-water marks allow.
func TestCollectedHeapsCommitTheirHighWater(t *testing.T) {
	spec, err := workload.ByName("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(numa.AMD48(), 8)
	cfg.Debug = true // verifier on, abandoned arrays poisoned
	rt := core.MustNewRuntime(cfg)
	hw := trackHighWater(rt)
	spec.Run(rt, 1)
	hw.done()
	for _, vp := range rt.VProcs {
		if vp.Stats.MinorGCs == 0 {
			t.Fatalf("vproc %d never collected; the test needs a run that collects everywhere", vp.ID)
		}
	}
	checkCommitBudget(t, "synthetic", hw)
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("verifier after the run: %v", err)
	}
}

// TestServingCommitsLittle: the serving shapes of the benchmark's rack_span
// and serve_open workloads collect on every vproc, through the global
// collections, long before a nursery fills. Their regions must commit what
// their windows have had to hold, and a small share of the local-heap words
// in all: an idle vproc keeps the first steps, 1/128 of its region for each
// window. Most of serve_open's vprocs bump 500 to 1,400 words between two
// global collections and take the nursery's 1/8 step.
func TestServingCommitsLittle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		machine    string
		nv         int
		opt        workload.LatencyOptions
		maxPercent float64
	}{
		{"rack_span", "rack256", 256, workload.LatencyOptions{Clients: 300, Requests: 3, MeanGapNs: 200_000}, 2},
		{"serve_open gap 400 us", "amd48", 48, workload.LatencyOptions{Clients: 600, Requests: 6, MeanGapNs: 400_000}, 15},
	} {
		topo, err := numa.Preset(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		cfg := bench.LatencyConfig(topo, mempage.PolicyLocal, tc.nv)
		cfg.Debug = true
		rt := core.MustNewRuntime(cfg)
		hw := trackHighWater(rt)
		workload.RunLatency(rt, tc.opt)
		hw.done()
		for _, vp := range rt.VProcs {
			if vp.Stats.MinorGCs == 0 {
				t.Fatalf("%s: vproc %d never collected; the test needs a run that collects everywhere", tc.name, vp.ID)
			}
		}
		checkCommitBudget(t, tc.name, hw)
		committed, total := rt.Space.CommittedWords(heap.RegionLocal), tc.nv*cfg.LocalHeapWords
		if pct := 100 * float64(committed) / float64(total); pct > tc.maxPercent {
			t.Errorf("%s: local heaps commit %d of %d words (%.1f %%), budget %.0f %%", tc.name, committed, total, pct, tc.maxPercent)
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("%s: verifier after the run: %v", tc.name, err)
		}
	}
}
