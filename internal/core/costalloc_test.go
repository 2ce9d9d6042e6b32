package core

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// allocTrace is what one allocation leaves behind that anything can observe.
type allocTrace struct {
	addr       heap.Addr
	payload    [2]uint64
	now        int64
	allocWords int64
	traffic    numa.TrafficStats
}

// TestCostAllocMatchesAlloc holds the cost-form allocators to the direct
// ones. Fast path: one program of leaf and vector allocations runs on every
// vproc of two identical runtimes, through AllocRaw/AllocVector on one and
// through CostAllocRaw/CostAllocVector followed by one advance on the other
// (falling back to the direct form when the cost form declines, as a step
// kernel does), and every allocation must leave the same address, payload,
// clock, AllocWords and machine traffic — under all three page policies, so
// the nursery is charged through the metered cache path too. Bail path: one
// sub-case per reason the safepoint has work asserts !ok with the heap, the
// stats and the traffic untouched.
func TestCostAllocMatchesAlloc(t *testing.T) {
	const nv, perTask = 4, 400
	for _, pol := range []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode} {
		t.Run(fmt.Sprintf("fast/%s", pol), func(t *testing.T) {
			run := func(cost bool) (traces [nv][]allocTrace, fast, declined int) {
				cfg := DefaultConfig(numa.AMD48(), nv)
				cfg.Policy = pol
				cfg.LocalHeapWords = 2048 // several minor collections per task
				rt := MustNewRuntime(cfg)
				// alloc allocates a leaf holding raw, or with slots a vector.
				alloc := func(vp *VProc, raw []uint64, slots []int) heap.Addr {
					var a heap.Addr
					var c int64
					ok := false
					if cost && slots != nil {
						a, c, ok = vp.CostAllocVector(slots, false)
					} else if cost {
						a, c, ok = vp.CostAllocRaw(raw, false)
					}
					switch {
					case ok:
						fast++
						vp.advance(c)
					case slots != nil:
						declined++
						a = vp.AllocVector(slots)
					default:
						declined++
						a = vp.AllocRaw(raw)
					}
					tr := allocTrace{addr: a, now: vp.Now(), allocWords: vp.Stats.AllocWords, traffic: rt.Machine.Stats()}
					copy(tr.payload[:], rt.Space.Payload(a))
					traces[vp.ID] = append(traces[vp.ID], tr)
					return a
				}
				rt.Run(func(vp *VProc) {
					for task := 0; task < nv; task++ {
						task := task
						vp.Spawn(func(vp *VProc, _ Env) {
							keep := vp.PushRoot(0)
							for i := 0; i < perTask; i++ {
								leaf := vp.PushRoot(alloc(vp, []uint64{uint64(task*perTask + i)}, nil))
								cell := alloc(vp, nil, []int{leaf, keep})
								vp.PopRoots(1)
								if i%8 == 0 {
									vp.SetRoot(keep, cell)
								}
							}
							vp.PopRoots(1)
						})
					}
				})
				return traces, fast, declined
			}
			direct, _, _ := run(false)
			cost, fast, declined := run(true)
			if fast == 0 || declined == 0 {
				t.Errorf("cost forms allocated %d times and declined %d: want both paths", fast, declined)
			}
			for id := range direct {
				if len(direct[id]) != len(cost[id]) {
					t.Fatalf("vproc %d: %d allocations direct, %d in cost form", id, len(direct[id]), len(cost[id]))
				}
				for i, want := range direct[id] {
					if got := cost[id][i]; got != want {
						t.Fatalf("vproc %d allocation %d diverged:\n cost:   %+v\n direct: %+v", id, i, got, want)
					}
				}
			}
		})
	}

	// Every reason the direct safepoint would do something other than return.
	for _, tc := range []struct {
		name string
		set  func(vp *VProc)
		// clear undoes set where no thief or collector is there to; nil
		// where the direct form's safepoint services the condition itself.
		clear func(vp *VProc)
	}{
		{"timer due", func(vp *VProc) { vp.AtThen(vp.Now(), nil, func(*VProc, Env) {}) }, nil},
		{"heapBusy", func(vp *VProc) { vp.heapBusy = true }, func(vp *VProc) { vp.heapBusy = false }},
		{"ZeroLimit", func(vp *VProc) { vp.Local.ZeroLimit() }, nil},
		{"pending", func(vp *VProc) { vp.rt.global.pending = true }, func(vp *VProc) { vp.rt.global.pending = false }},
		{"termPending", func(vp *VProc) { vp.rt.global.termPending = true }, func(vp *VProc) { vp.rt.global.termPending = false }},
		{"marking", func(vp *VProc) { vp.rt.global.marking = true }, func(vp *VProc) { vp.rt.global.marking = false }},
		{"full nursery", func(vp *VProc) {
			for vp.Local.CanAlloc(2) {
				vp.AllocRawN(2)
			}
		}, nil},
	} {
		t.Run("bail/"+tc.name, func(t *testing.T) {
			rt := MustNewRuntime(DefaultConfig(numa.AMD48(), 1))
			rt.Run(func(vp *VProc) {
				s0, s1 := vp.PushRoot(vp.AllocRawN(1)), vp.PushRoot(0)
				try := func() (bool, bool) {
					_, _, rawOK := vp.CostAllocRaw([]uint64{1, 2}, false)
					_, _, vecOK := vp.CostAllocVector([]int{s0, s1}, false)
					return rawOK, vecOK
				}
				tc.set(vp)
				alloc, now, stats, traffic := vp.Local.Alloc, vp.Now(), vp.Stats, rt.Machine.Stats()
				if rawOK, vecOK := try(); rawOK || vecOK {
					t.Errorf("cost forms allocated (raw %v, vector %v) where the safepoint has work", rawOK, vecOK)
				}
				if vp.Local.Alloc != alloc || vp.Now() != now || vp.Stats != stats || rt.Machine.Stats() != traffic {
					t.Errorf("a declining cost form left a trace: alloc %d -> %d, clock %d -> %d,\n stats %+v -> %+v,\n traffic %+v -> %+v",
						alloc, vp.Local.Alloc, now, vp.Now(), stats, vp.Stats, traffic, rt.Machine.Stats())
				}
				// With the condition serviced the cost forms allocate again.
				if tc.clear != nil {
					tc.clear(vp)
				}
				vp.AllocRaw([]uint64{1, 2})
				if rawOK, vecOK := try(); !rawOK || !vecOK {
					t.Errorf("cost forms still decline (raw %v, vector %v) once the safepoint is idle", rawOK, vecOK)
				}
				vp.PopRoots(2)
			})
		})
	}
}
