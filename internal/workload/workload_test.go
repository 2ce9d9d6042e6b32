package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/numa"
)

// QuicksortSeq is the sequential reference: it sorts a copy of the same
// generated input host-side and returns the benchmark checksum.
func QuicksortSeq(seed uint64, scale float64) uint64 {
	n := scaled(qsBaseN, scale)
	rng := newRand(seed ^ 0x9c5d)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Next() >> 16
	}
	slices.Sort(vals)
	var check uint64
	for _, w := range vals {
		check = fnv1a(check, w)
	}
	return check
}

// testConfig builds a small-machine config for correctness tests.
func testConfig(t testing.TB, nvprocs int) core.Config {
	t.Helper()
	topo, err := numa.NewCustom(numa.Topology{Name: "wl-test", Packages: 2, NodesPerPackage: 2, CoresPerNode: 2, LocalBW: 20, SamePkgBW: 15, RemoteBW: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(topo, nvprocs)
	cfg.LocalHeapWords = 8 << 10
	cfg.ChunkWords = 2 << 10
	return cfg
}

// runAt executes a benchmark at the given vproc count and scale.
func runAt(t *testing.T, spec Spec, nv int, scale float64, debug bool) Result {
	t.Helper()
	cfg := testConfig(t, nv)
	cfg.Debug = debug
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, scale)
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("%s at %d vprocs: heap invariants: %v", spec.Name, nv, err)
	}
	return res
}

func TestQuicksortMatchesReference(t *testing.T) {
	spec, _ := ByName("quicksort")
	want := QuicksortSeq(testConfig(t, 1).Seed, 0.25)
	for _, nv := range []int{1, 3, 8} {
		got := runAt(t, spec, nv, 0.25, nv == 3)
		if got.Check != want {
			t.Errorf("quicksort at %d vprocs: check %d, want %d", nv, got.Check, want)
		}
	}
}

// TestQsortSortsDuplicates runs qsort itself, with the heap verifier on, on
// a rope of 5,000 values drawn from 1,000: the output is the sorted input,
// every duplicate kept.
func TestQsortSortsDuplicates(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		rng := newRand(42)
		vals := make([]uint64, 5000)
		for i := range vals {
			vals[i] = rng.Next() % 1000
		}
		rs := vp.PushRoot(ropeFromInts(vp, d, vals))
		os := vp.PushRoot(qsort(vp, d, rs))
		got := ropeToInts(vp, vp.Root(os))
		slices.Sort(vals)
		if !slices.Equal(got, vals) {
			t.Errorf("qsort of %d values is not their sorted order", len(vals))
		}
		vp.PopRoots(2)
	})
}

func TestDMMMatchesReference(t *testing.T) {
	spec, _ := ByName("dmm")
	want := DMMSeq(0.5)
	for _, nv := range []int{1, 4} {
		got := runAt(t, spec, nv, 0.5, nv == 4)
		if got.Check != want {
			t.Errorf("dmm at %d vprocs: check %d, want %d", nv, got.Check, want)
		}
	}
}

func TestSMVMMatchesReference(t *testing.T) {
	spec, _ := ByName("smvm")
	want := SMVMSeq(0.25)
	for _, nv := range []int{1, 4} {
		got := runAt(t, spec, nv, 0.25, false)
		if got.Check != want {
			t.Errorf("smvm at %d vprocs: check %d, want %d", nv, got.Check, want)
		}
	}
}

func TestRaytracerMatchesReference(t *testing.T) {
	spec, _ := ByName("raytracer")
	want := RaytracerSeq(0.5)
	for _, nv := range []int{1, 4} {
		got := runAt(t, spec, nv, 0.5, false)
		if got.Check != want {
			t.Errorf("raytracer at %d vprocs: check %d, want %d", nv, got.Check, want)
		}
	}
}

func TestBarnesHutDeterministicAcrossVProcs(t *testing.T) {
	spec, _ := ByName("barnes-hut")
	// The parallel result must be schedule-independent: identical at
	// every vproc count (pure computation over the same tree).
	base := runAt(t, spec, 1, 0.25, false)
	for _, nv := range []int{2, 6} {
		got := runAt(t, spec, nv, 0.25, false)
		if got.Check != base.Check {
			t.Errorf("barnes-hut at %d vprocs: check %d, want %d", nv, got.Check, base.Check)
		}
	}
}

func TestSyntheticMatchesReference(t *testing.T) {
	spec, _ := ByName("synthetic")
	for _, nv := range []int{1, 4} {
		want := SyntheticSeq(nv, 0.3)
		got := runAt(t, spec, nv, 0.3, false)
		if got.Check != want {
			t.Errorf("synthetic at %d vprocs: check %d, want %d", nv, got.Check, want)
		}
	}
}

func TestWorkloadsExerciseTheCollector(t *testing.T) {
	// Each workload must actually stress the machinery it claims to:
	// allocation everywhere, minor GCs for the churners.
	for _, name := range []string{"quicksort", "barnes-hut", "synthetic"} {
		spec, _ := ByName(name)
		res := runAt(t, spec, 4, 0.25, false)
		if res.Stats.MinorGCs == 0 {
			t.Errorf("%s: no minor collections", name)
		}
		if res.Stats.AllocWords == 0 {
			t.Errorf("%s: no allocation", name)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	for _, s := range All() {
		if got, err := ByName(s.Name); err != nil || got.Name != s.Name {
			t.Errorf("ByName(%q) = %v, %v", s.Name, got.Name, err)
		}
	}
}

func TestBarnesHutPhysicsAgainstDirectSum(t *testing.T) {
	// Validate the Barnes-Hut force approximation against a direct O(n^2)
	// sum for one step on the host: the tree code and the physics share
	// plummer() and the same constants, so a gross error here means the
	// tree is wrong.
	n := 256
	bodies := plummer(testConfig(t, 1).Seed, n)
	// Direct accelerations.
	type acc struct{ ax, ay float64 }
	direct := make([]acc, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := bodies[j][bodyX] - bodies[i][bodyX]
			dy := bodies[j][bodyY] - bodies[i][bodyY]
			d2 := dx*dx + dy*dy + 1e-4
			inv := 1 / sqrt64(d2)
			f := bodies[j][bodyMass] * inv * inv * inv
			direct[i].ax += f * dx
			direct[i].ay += f * dy
		}
	}
	// One simulated step at 1 vproc per force kernel — the step machine every
	// figure runs and the direct reference TestStepKernelEquivalence compares
	// it with; compare positions to a host-side direct-sum step.
	for _, kernel := range []struct {
		name string
		step func(vp *core.VProc, env core.Env, i int)
	}{
		{"stepBodyStepped", new(bhVisits).stepBodyStepped},
		{"stepBody", stepBody},
	} {
		cfg := testConfig(t, 1)
		rt := core.MustNewRuntime(cfg)
		d := RegisterBHDescs(rt)
		var simX, simY []float64
		rt.Run(func(vp *core.VProc) {
			cur := vp.AllocGlobalVectorN(n)
			curSlot := vp.PushRoot(cur)
			for i := 0; i < n; i++ {
				w := make([]uint64, bodyWords)
				for k, f := range bodies[i] {
					w[k] = f2w(f)
				}
				b := vp.AllocRaw(w)
				bs := vp.PushRoot(b)
				vp.StoreGlobalPtr(vp.Root(curSlot), i, bs)
				vp.PopRoots(1)
			}
			rootSlot := vp.PushRoot(buildQuadtree(vp, d, curSlot, n))
			vp.PromoteRoot(rootSlot)
			next := vp.AllocGlobalVectorN(n)
			nextSlot := vp.PushRoot(next)
			for i := 0; i < n; i++ {
				env := vp.MakeEnv(vp.Root(curSlot), vp.Root(rootSlot), vp.Root(nextSlot))
				kernel.step(vp, env, i)
				vp.PopRoots(3)
			}
			for i := 0; i < n; i++ {
				b := vp.LoadPtr(vp.Root(nextSlot), i)
				p := vp.ReadBlock(b)
				simX = append(simX, w2f(p[bodyX]))
				simY = append(simY, w2f(p[bodyY]))
			}
			vp.PopRoots(3)
		})
		var worst float64
		for i := 0; i < n; i++ {
			vx := bodies[i][bodyVX] + direct[i].ax*bhDT
			vy := bodies[i][bodyVY] + direct[i].ay*bhDT
			wantX := bodies[i][bodyX] + vx*bhDT
			wantY := bodies[i][bodyY] + vy*bhDT
			dx, dy := simX[i]-wantX, simY[i]-wantY
			err := sqrt64(dx*dx + dy*dy)
			if err > worst {
				worst = err
			}
		}
		// theta=0.5 should approximate a single step to well under 1e-3 in
		// these units.
		if worst > 1e-3 {
			t.Errorf("Barnes-Hut (%s) vs direct sum: worst position error %g > 1e-3", kernel.name, worst)
		}
	}
}

func sqrt64(x float64) float64 { return math.Sqrt(x) }

// TestMaxObjectWordsIsTheLargest runs every benchmark at two small scales on
// heaps too large to collect — so every object it allocates is still there
// to walk afterwards — and requires the largest object in the local heaps
// and the chunks to be the one its Spec states.
func TestMaxObjectWordsIsTheLargest(t *testing.T) {
	drawn := map[string]bool{"server": true}
	for _, spec := range All() {
		for _, scale := range []float64{0.1, 0.3} {
			cfg := core.DefaultConfig(numa.AMD48(), 4)
			cfg.LocalHeapWords = 1 << 24
			cfg.GlobalTriggerWords = 1 << 40
			rt := core.MustNewRuntime(cfg)
			spec.Run(rt, scale)
			if s := rt.TotalStats(); s.MinorGCs != 0 || rt.Stats.GlobalGCs != 0 {
				t.Fatalf("%s at scale %g collected (%d minor, %d global); the walk would miss the garbage", spec.Name, scale, s.MinorGCs, rt.Stats.GlobalGCs)
			}
			largest := 0
			walk := func(r *heap.Region, lo, hi int) {
				for w := r.Walk(lo, hi); ; {
					obj, h, ok := w.Next()
					if !ok {
						return
					}
					if heap.IsHeader(h) {
						largest = max(largest, heap.HeaderLen(h))
					} else {
						largest = max(largest, rt.Space.ObjectLen(obj))
					}
				}
			}
			for _, vp := range rt.VProcs {
				walk(vp.Local.Region, vp.Local.NurseryStart, vp.Local.Alloc)
			}
			for _, c := range rt.Chunks.Active() {
				walk(c.Region, 1, c.Top)
			}
			// The server workload draws each request's size up to the
			// stated bound, which a short run need not reach.
			want := spec.MaxObjectWords(scale)
			if largest > want || largest < want && !drawn[spec.Name] {
				t.Errorf("%s at scale %g: the largest object allocated has %d words, MaxObjectWords says %d", spec.Name, scale, largest, want)
			}
		}
	}
}
