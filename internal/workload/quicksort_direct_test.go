package workload

import (
	"sort"
	"testing"

	"repro/internal/core"
)

func TestQsortDirectSmall(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	d := RegisterRopeDescs(rt)
	rt.Run(func(vp *core.VProc) {
		rng := newRand(42)
		vals := make([]uint64, 5000)
		for i := range vals {
			vals[i] = rng.next() % 1000
		}
		rs := vp.PushRoot(ropeFromInts(vp, d, vals))
		out := qsort(vp, d, rs)
		os := vp.PushRoot(out)
		got := ropeToInts(vp, vp.Root(os))
		want := append([]uint64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		wm := map[uint64]int{}
		for _, w := range want {
			wm[w]++
		}
		gm := map[uint64]int{}
		for _, w := range got {
			gm[w]++
		}
		for v, c := range gm {
			if wm[v] != c {
				t.Errorf("value %d: got %d copies, want %d", v, c, wm[v])
			}
		}
		// Also check sortedness of got.
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				t.Errorf("unsorted at %d: %d > %d", i, got[i-1], got[i])
				break
			}
		}
		vp.PopRoots(2)
	})
}
