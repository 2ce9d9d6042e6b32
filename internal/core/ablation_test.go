package core

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/mempage"
)

// These tests pin down the *semantics* of the design-choice knobs that the
// ablation benchmarks measure.

// growList pushes survivors so the old generation grows and majors run.
func growList(vp *VProc, listSlot int, n int) {
	for i := 0; i < n; i++ {
		blob := vp.AllocRaw([]uint64{uint64(i), uint64(i * 3)})
		bs := vp.PushRoot(blob)
		cell := vp.AllocVector([]int{bs, listSlot})
		vp.PopRoots(1)
		vp.SetRoot(listSlot, cell)
		if i%8 == 0 {
			churn(vp, 30, 4)
		}
	}
}

func TestYoungPartitionReducesPromotion(t *testing.T) {
	run := func(young bool) int64 {
		cfg := stressConfig(t, 1)
		cfg.Debug = false
		cfg.YoungPartition = young
		rt := MustNewRuntime(cfg)
		rt.Run(func(vp *VProc) {
			listSlot := vp.PushRoot(0)
			growList(vp, listSlot, 400)
			vp.PopRoots(1)
		})
		return rt.TotalStats().MajorCopied
	}
	with := run(true)
	without := run(false)
	if with == 0 || without == 0 {
		t.Fatalf("expected major collections in both runs (with=%d, without=%d)", with, without)
	}
	// Without the young-data partition, guaranteed-live young data is
	// evacuated prematurely, so majors copy more.
	if without <= with {
		t.Errorf("young partition off should copy more: with=%d without=%d", with, without)
	}
}

func TestLazyPromotionPromotesLessThanEager(t *testing.T) {
	run := func(lazy bool) int64 {
		cfg := stressConfig(t, 1) // single vproc: nothing is ever stolen
		cfg.Debug = false
		cfg.LazyPromotion = lazy
		rt := MustNewRuntime(cfg)
		rt.Run(func(vp *VProc) {
			for i := 0; i < 20; i++ {
				a := buildTree(vp, 4, uint64(i))
				s := vp.PushRoot(a)
				task := vp.Spawn(func(vp *VProc, env Env) {
					_ = checksumTree(vp, env.Get(vp, 0))
				}, vp.Root(s))
				vp.Join(task)
				vp.PopRoots(1)
			}
		})
		return rt.TotalStats().PromotedWords
	}
	lazy := run(true)
	eager := run(false)
	if lazy != 0 {
		t.Errorf("lazy promotion with no steals promoted %d words, want 0", lazy)
	}
	if eager == 0 {
		t.Error("eager promotion should promote every spawned environment")
	}
}

func TestNodeLocalScanAblationStillCorrect(t *testing.T) {
	// With the shared scan list the collection must remain correct,
	// only slower; run the full graph-preservation stress.
	cfg := stressConfig(t, 4)
	cfg.NodeLocalScan = false
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	var sum, want uint64
	rt.Run(func(vp *VProc) {
		a := buildTree(vp, 6, 5)
		s := vp.PushRoot(a)
		want = checksumTree(vp, vp.Root(s))
		for i := 0; i < 8; i++ {
			vp.PromoteRoot(s)
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 1200, 6)
		}
		sum = checksumTree(vp, vp.Root(s))
		vp.PopRoots(1)
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("expected global collections")
	}
	if sum != want {
		t.Errorf("graph corrupted under shared-list scanning: %d vs %d", sum, want)
	}
}

// TestCrossNodeScannedUnderSharedList: with the shared scan list
// (nodeListFor maps every vproc to list 0) a vproc takes chunks homed on
// other nodes off it. CrossNodeScanned counts those scans: it used to count
// only popScanChunk's fallback to another node's list, which the shared list
// never reaches, and read 0 here. Four vprocs on four nodes promote at once,
// under interleaved placement, so the to-space chunks are homed everywhere.
func TestCrossNodeScannedUnderSharedList(t *testing.T) {
	cfg := stressConfig(t, 4)
	cfg.Policy = mempage.PolicyInterleaved
	cfg.NodeLocalScan = false
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		var tasks []*Task
		for w := range 4 {
			tasks = append(tasks, vp.Spawn(func(vp *VProc, _ Env) {
				// The trees stay live, so each collection copies
				// more than a chunk per vproc and fills chunks
				// mid-scan, which go to the scan list.
				for i := 0; i < 6; i++ {
					vp.PromoteRoot(vp.PushRoot(buildTree(vp, 6, uint64(w*8+i))))
					churn(vp, 600, 6)
				}
				vp.PopRoots(6)
			}))
		}
		for _, task := range tasks {
			vp.Join(task)
		}
	})
	if rt.Stats.GlobalGCs == 0 || rt.Stats.CrossNodeScanned == 0 {
		t.Errorf("%d global collections scanned %d chunks off their home node; want both non-zero",
			rt.Stats.GlobalGCs, rt.Stats.CrossNodeScanned)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

func TestChunkAffinityAblationStillCorrect(t *testing.T) {
	cfg := stressConfig(t, 2)
	cfg.NodeAffineChunks = false
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		listSlot := vp.PushRoot(0)
		growList(vp, listSlot, 600)
		vp.PopRoots(1)
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants without chunk affinity: %v", err)
	}
}

func TestVerifierCatchesCrossLocalPointer(t *testing.T) {
	// The verifier itself must detect violations: forge a pointer from
	// one vproc's heap into another's and expect a complaint.
	cfg := stressConfig(t, 2)
	cfg.Debug = false
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		if vp.ID != 0 {
			return
		}
		other := rt.VProcs[1]
		foreign := other.Local.Bump(heap.MakeHeader(heap.IDRaw, 1))
		v := vp.AllocVectorN(1)
		rt.Space.Payload(v)[0] = uint64(foreign) // forged cross-local edge
		vs := vp.PushRoot(v)
		if err := rt.VerifyHeap(); err == nil {
			t.Error("verifier missed a cross-local pointer")
		}
		// Clean up so the runtime can shut down without tripping
		// later checks.
		rt.Space.Payload(vp.Root(vs))[0] = 0
		vp.PopRoots(1)
	})
}

func TestVerifierCatchesGlobalToLocalPointer(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.Debug = false
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		local := vp.AllocRaw([]uint64{1})
		ls := vp.PushRoot(local)
		g := vp.AllocGlobalVectorN(1)
		rt.Space.Payload(g)[0] = uint64(vp.Root(ls)) // forged global→local edge
		if err := rt.VerifyHeap(); err == nil {
			t.Error("verifier missed a global→local pointer")
		}
		rt.Space.Payload(g)[0] = 0
		vp.PopRoots(1)
	})
}

func TestConfigValidation(t *testing.T) {
	topo := stressConfig(t, 1).Topo
	cases := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.NumVProcs = 0 },
		func(c *Config) { c.NumVProcs = topo.NumCores() + 1 },
		func(c *Config) { c.LocalHeapWords = 8 },
		func(c *Config) { c.ChunkWords = 8 },
		// One word more than a heap.Addr can index.
		func(c *Config) { c.LocalHeapWords = heap.MaxRegionWords + 1 },
		func(c *Config) { c.ChunkWords = heap.MaxRegionWords + 1 },
	}
	for i, mutate := range cases {
		cfg := stressConfig(t, 1)
		mutate(&cfg)
		if _, err := NewRuntime(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
