package core

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/numa"
)

// stressConfig returns a configuration with tiny heaps and a low global
// trigger so every collection phase fires many times, plus the full-heap
// invariant verifier after every phase.
func stressConfig(t testing.TB, nvprocs int) Config {
	t.Helper()
	topo, err := numa.NewCustom(numa.Topology{Name: "stress", Packages: 2, NodesPerPackage: 2, CoresPerNode: 2, LocalBW: 20, SamePkgBW: 15, RemoteBW: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo, nvprocs)
	cfg.LocalHeapWords = 2048
	cfg.ChunkWords = 512
	cfg.GlobalTriggerWords = 8 * 512
	cfg.Debug = true
	return cfg
}

// buildTree builds a random binary tree of the given depth in the heap and
// returns its address; the caller must root it before the next allocation.
// Leaves are raw objects carrying a value; interior nodes are 2-vectors.
func buildTree(vp *VProc, depth int, val uint64) heap.Addr {
	if depth == 0 {
		return vp.AllocRaw([]uint64{val})
	}
	l := buildTree(vp, depth-1, val*2)
	ls := vp.PushRoot(l)
	r := buildTree(vp, depth-1, val*2+1)
	rs := vp.PushRoot(r)
	v := vp.AllocVector([]int{ls, rs})
	vp.PopRoots(2)
	return v
}

// checksumTree deterministically folds the tree's leaf values. It uses raw
// space access (costs do not matter for correctness checks) and resolves
// forwarding pointers, so it is valid on any root no matter how many
// collections have run.
func checksumTree(vp *VProc, a heap.Addr) uint64 {
	a = vp.Resolve(a)
	s := vp.rt.Space
	h := s.Header(a)
	switch heap.HeaderID(h) {
	case heap.IDRaw:
		return s.Payload(a)[0]
	case heap.IDVector:
		var sum uint64 = 1469598103934665603
		for _, w := range s.Payload(a) {
			sum = (sum ^ checksumTree(vp, heap.Addr(w))) * 1099511628211
		}
		return sum
	default:
		panic("unexpected object in tree")
	}
}

// churn allocates-and-drops garbage to force minor collections.
func churn(vp *VProc, objects, size int) {
	for i := 0; i < objects; i++ {
		vp.AllocRawN(size)
	}
}

func TestMinorGCPreservesGraph(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		a := buildTree(vp, 5, 1)
		slot := vp.PushRoot(a)
		want := checksumTree(vp, vp.Root(slot))
		minors := vp.Stats.MinorGCs
		churn(vp, 500, 3) // far exceeds the nursery: many minors
		if vp.Stats.MinorGCs == minors {
			t.Error("expected minor collections to run")
		}
		if got := checksumTree(vp, vp.Root(slot)); got != want {
			t.Errorf("checksum after minors = %d, want %d", got, want)
		}
	})
}

// pushList prepends a raw payload onto a cons list held in a root slot.
func pushList(vp *VProc, listSlot int, val uint64) {
	blob := vp.AllocRaw([]uint64{val, val ^ 0xABCD, val * 31})
	bs := vp.PushRoot(blob)
	cell := vp.AllocVector([]int{bs, listSlot})
	vp.PopRoots(1)
	vp.SetRoot(listSlot, cell)
}

// sumList folds the list for verification.
func sumList(vp *VProc, a heap.Addr) uint64 {
	var sum uint64
	for a != 0 {
		a = vp.Resolve(a)
		s := vp.rt.Space
		blob := vp.Resolve(heap.Addr(s.Payload(a)[0]))
		for _, w := range s.Payload(blob) {
			sum += w
		}
		a = heap.Addr(s.Payload(a)[1])
	}
	return sum
}

func TestMajorGCMovesOldDataToGlobal(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		// Grow a live list far beyond the local heap size: the old
		// generation fills, the nursery shrinks below threshold, and
		// major collections must offload old data to the global heap.
		listSlot := vp.PushRoot(0)
		var want uint64
		for i := uint64(1); i <= 600; i++ {
			pushList(vp, listSlot, i)
			want += i + (i ^ 0xABCD) + i*31
			if i%10 == 0 {
				churn(vp, 40, 4)
			}
		}
		if vp.Stats.MajorGCs == 0 {
			t.Error("expected major collections to run")
		}
		if got := sumList(vp, vp.Root(listSlot)); got != want {
			t.Errorf("list sum after majors = %d, want %d", got, want)
		}
		// The list head was just allocated, but the tail must have
		// been evacuated to the global heap.
		tail := vp.Resolve(vp.Root(listSlot))
		hops := 0
		for {
			next := heap.Addr(rt.Space.Payload(tail)[1])
			if next == 0 {
				break
			}
			tail = vp.Resolve(next)
			hops++
		}
		if rt.Space.Region(tail.RegionID()).Kind != heap.RegionChunk {
			t.Errorf("list tail (after %d hops) still in local heap after %d majors", hops, vp.Stats.MajorGCs)
		}
	})
}

func TestPromotionPreservesGraphAndInvariants(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		a := buildTree(vp, 6, 3)
		slot := vp.PushRoot(a)
		want := checksumTree(vp, vp.Root(slot))
		na := vp.PromoteRoot(slot)
		if rt.Space.Region(na.RegionID()).Kind != heap.RegionChunk {
			t.Fatal("promotion did not move the root to the global heap")
		}
		if got := checksumTree(vp, na); got != want {
			t.Errorf("checksum after promotion = %d, want %d", got, want)
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("heap invariants after promotion: %v", err)
		}
		// Promotion is idempotent on already-global data.
		if again := vp.Promote(na); again != na {
			t.Errorf("re-promotion moved a global object: %v -> %v", na, again)
		}
		// The local heap still has forwarding pointers; run collections
		// over them.
		churn(vp, 3000, 4)
		if got := checksumTree(vp, vp.Root(slot)); got != want {
			t.Errorf("checksum after churn = %d, want %d", got, want)
		}
	})
}

func TestGlobalGCReclaimsAndPreserves(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 4))
	var sums [4]uint64
	var wants [4]uint64
	rt.Run(func(vp *VProc) {
		// Run the same mutator on all four vprocs via tasks.
		for i := 0; i < 4; i++ {
			i := i
			vp.Spawn(func(vp *VProc, _ Env) {
				a := buildTree(vp, 6, uint64(i+1))
				slot := vp.PushRoot(a)
				wants[i] = checksumTree(vp, vp.Root(slot))
				// Alternate promotion and churn so global heap
				// fills with garbage and live data.
				for round := 0; round < 6; round++ {
					vp.PromoteRoot(slot)
					b := buildTree(vp, 5, uint64(round))
					bs := vp.PushRoot(b)
					vp.PromoteRoot(bs)
					vp.PopRoots(1)
					churn(vp, 800, 6)
				}
				sums[i] = checksumTree(vp, vp.Root(slot))
				vp.PopRoots(1)
			})
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatalf("expected global collections (chunks active: %d)", len(rt.Chunks.Active()))
	}
	for i := range sums {
		if sums[i] != wants[i] {
			t.Errorf("vproc task %d: checksum %d, want %d", i, sums[i], wants[i])
		}
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants at end: %v", err)
	}
}

func TestStealPromotesEnvironment(t *testing.T) {
	cfg := stressConfig(t, 2)
	rt := MustNewRuntime(cfg)
	var got, want uint64
	var stolenWasGlobal bool
	rt.Run(func(vp *VProc) {
		a := buildTree(vp, 5, 9)
		slot := vp.PushRoot(a)
		want = checksumTree(vp, vp.Root(slot))
		t0 := vp.Spawn(func(tvp *VProc, env Env) {
			root := env.Get(tvp, 0)
			// If the task was stolen, lazy promotion must have
			// moved the environment to the global heap.
			if tvp.ID != 0 {
				r := tvp.rt.Space.Region(tvp.Resolve(root).RegionID())
				stolenWasGlobal = r.Kind == heap.RegionChunk
			}
			got = checksumTree(tvp, root)
		}, vp.Root(slot))
		// Busy-spin on compute (not the queue) so vproc 1 steals t0.
		vp.Compute(1_000_000)
		vp.Join(t0)
		vp.PopRoots(1)
	})
	if got != want {
		t.Errorf("stolen task computed %d, want %d", got, want)
	}
	total := rt.TotalStats()
	if total.Steals == 0 {
		t.Error("expected the idle vproc to steal the task")
	}
	if !stolenWasGlobal {
		t.Error("stolen environment was not promoted to the global heap")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, VPStats, uint64) {
		rt := MustNewRuntime(stressConfig(t, 4))
		var sum uint64
		mk := rt.Run(func(vp *VProc) {
			for i := 0; i < 6; i++ {
				i := i
				vp.Spawn(func(vp *VProc, _ Env) {
					a := buildTree(vp, 5, uint64(i))
					s := vp.PushRoot(a)
					churn(vp, 400, 5)
					sum += checksumTree(vp, vp.Root(s))
					vp.PopRoots(1)
				})
			}
		})
		return mk, rt.TotalStats(), sum
	}
	mk1, st1, sum1 := run()
	mk2, st2, sum2 := run()
	if mk1 != mk2 {
		t.Errorf("virtual makespan differs across runs: %d vs %d", mk1, mk2)
	}
	if st1 != st2 {
		t.Errorf("stats differ across runs:\n%+v\n%+v", st1, st2)
	}
	if sum1 != sum2 {
		t.Errorf("checksums differ across runs: %d vs %d", sum1, sum2)
	}
}
