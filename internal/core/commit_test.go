package core_test

// Budget tests for lazily committed local heaps and chunks: construction must
// stay cheap, a short run must commit only what it touches, and a run that
// collects must end on the flat layout the collectors index directly.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
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

// TestCollectedHeapsAreFlat: once a vproc has collected, its region is the
// whole-region, Base-0 layout for the rest of the run.
func TestCollectedHeapsAreFlat(t *testing.T) {
	spec, err := workload.ByName("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(numa.AMD48(), 8)
	cfg.Debug = true // verifier on, abandoned arrays poisoned
	rt := core.MustNewRuntime(cfg)
	spec.Run(rt, 1)
	for _, vp := range rt.VProcs {
		if vp.Stats.MinorGCs == 0 {
			t.Fatalf("vproc %d never collected; the test needs a run that collects everywhere", vp.ID)
		}
		r := vp.Local.Region
		if r.Base != 0 || len(r.Words) != r.Size || r.Size != cfg.LocalHeapWords {
			t.Errorf("vproc %d: window [%d,%d) of a %d-word region after %d minor collections",
				vp.ID, r.Base, r.Base+len(r.Words), r.Size, vp.Stats.MinorGCs)
		}
	}
}
