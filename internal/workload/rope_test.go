package workload

import (
	"testing"

	"repro/internal/core"
)

func TestRopeRoundTrip(t *testing.T) {
	rt := core.MustNewRuntime(testConfig(t, 1))
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		vals := make([]uint64, 3000)
		for i := range vals {
			vals[i] = uint64(i * 7)
		}
		r := ropeFromInts(vp, d, vals)
		rs := vp.PushRoot(r)
		if got := ropeLen(vp, vp.Root(rs)); got != len(vals) {
			t.Errorf("ropeLen = %d, want %d", got, len(vals))
		}
		out := ropeToInts(vp, vp.Root(rs))
		if len(out) != len(vals) {
			t.Fatalf("round trip len = %d, want %d", len(out), len(vals))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("round trip [%d] = %d, want %d", i, out[i], vals[i])
			}
		}
		vp.PopRoots(1)
	})
}

func TestRopePartitionUnderGCPressure(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.LocalHeapWords = 2048 // tiny: the partition's flushes will GC constantly
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		vals := make([]uint64, 4000)
		for i := range vals {
			vals[i] = uint64(i)
		}
		rs := vp.PushRoot(ropeFromInts(vp, d, vals))
		ps := vp.PushRoot(ropePartition3(vp, d, rs, 1500))
		next := uint64(0)
		for k, want := range []int{1500, 1, 2499} {
			out := ropeToInts(vp, vp.LoadPtr(vp.Root(ps), k))
			if len(out) != want {
				t.Fatalf("part %d holds %d, want %d", k, len(out), want)
			}
			for i, w := range out {
				if w != next {
					t.Fatalf("part %d [%d] = %d, want %d", k, i, w, next)
				}
				next++
			}
		}
		vp.PopRoots(2)
	})
}

func TestRopeCatOrder(t *testing.T) {
	rt := core.MustNewRuntime(testConfig(t, 1))
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		a := vp.PushRoot(ropeFromInts(vp, d, []uint64{1, 2, 3}))
		b := vp.PushRoot(ropeFromInts(vp, d, []uint64{4, 5}))
		c := vp.PushRoot(ropeCat(vp, d, a, b))
		out := ropeToInts(vp, vp.Root(c))
		want := []uint64{1, 2, 3, 4, 5}
		if len(out) != len(want) {
			t.Fatalf("cat len = %d, want %d", len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("cat[%d] = %d, want %d", i, out[i], want[i])
			}
		}
		vp.PopRoots(3)
	})
}

func TestSeqSortRope(t *testing.T) {
	rt := core.MustNewRuntime(testConfig(t, 1))
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		vals := []uint64{9, 3, 7, 1, 8, 2, 2, 5}
		rs := vp.PushRoot(ropeFromInts(vp, d, vals))
		sorted := seqSortRope(vp, d, rs)
		ss := vp.PushRoot(sorted)
		out := ropeToInts(vp, vp.Root(ss))
		want := []uint64{1, 2, 2, 3, 5, 7, 8, 9}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("sorted[%d] = %d, want %d (full %v)", i, out[i], want[i], out)
			}
		}
		vp.PopRoots(2)
	})
}
