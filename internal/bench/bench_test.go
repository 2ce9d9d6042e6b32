package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// speedupAt returns a benchmark's speedup at a thread count in a measured
// sweep: its first point's makespan over the one at threads.
func speedupAt(pts []Point, bench string, threads int) (float64, bool) {
	var base Point
	for _, p := range pts {
		if p.Benchmark != bench {
			continue
		}
		if base.Benchmark == "" {
			base = p
		}
		if p.Threads == threads {
			return base.VirtualMs / p.VirtualMs, true
		}
	}
	return 0, false
}

// Small-scale sweeps keep these tests fast; shapes are asserted loosely.
const testScale = 0.2

func TestSweepSpeedupBaseline(t *testing.T) {
	pts := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{1, 8},
		Options{Scale: testScale, Benchmarks: []string{"raytracer"}})
	sp1, ok := speedupAt(pts, "raytracer", 1)
	if !ok || sp1 != 1.0 {
		t.Fatalf("1-thread speedup = %v, want 1.0", sp1)
	}
	sp8, _ := speedupAt(pts, "raytracer", 8)
	if sp8 < 3 {
		t.Errorf("raytracer at 8 threads: speedup %.2f, want > 3", sp8)
	}
}

func TestFigureIDsAndTitles(t *testing.T) {
	for id := 4; id <= 7; id++ {
		pts, err := FigurePoints([]int{id}, []string{"synthetic"}, 0.05)
		if err == nil {
			pts, err = Measure(pts, 0, nil)
		}
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		out := RenderFigure(id, pts)
		if !strings.HasPrefix(out, fmt.Sprintf("Figure %d:", id)) {
			t.Errorf("figure %d rendered under another title:\n%s", id, out)
		}
		if !strings.Contains(out, "Figure") || !strings.Contains(out, "synthetic") {
			t.Errorf("figure %d render missing content:\n%s", id, out)
		}
	}
	if _, err := FigurePoints([]int{3}, FigureBenchmarks, 1); err == nil {
		t.Error("FigurePoints(3) should fail")
	}
}

// TestExternalBaselineNormalization renders hand-built points, no simulation:
// Figures 6 and 7 divide by the Figure 5 one-thread point (§4.3), every
// other table — a paper figure's, the server sweep's six, a custom sweep's —
// by its benchmark's own first point.
func TestExternalBaselineNormalization(t *testing.T) {
	pt := func(fig int, machine, policy string, threads int, ms float64) Point {
		return Point{Figure: fig, Benchmark: "dmm", Machine: machine, Policy: policy, Threads: threads, VirtualMs: ms}
	}
	ref := pt(5, "amd48", "local", 1, 8)
	for _, tc := range []struct {
		id   int
		pts  []Point
		want string
	}{
		{4, []Point{pt(4, "intel32", "local", 1, 6), pt(4, "intel32", "local", 4, 2)},
			"Figure 4: speedups, Intel 32-core, local allocation\nthreads            1       4\ndmm             1.00    3.00\n"},
		{5, []Point{ref, pt(5, "amd48", "local", 4, 2)},
			"Figure 5: speedups, AMD 48-core, local allocation\nthreads            1       4\ndmm             1.00    4.00\n"},
		{6, []Point{ref, pt(6, "amd48", "interleaved", 1, 16), pt(6, "amd48", "interleaved", 4, 4)},
			"Figure 6: speedups, AMD 48-core, interleaved allocation\nthreads            1       4\ndmm             0.50    2.00\n"},
		{7, []Point{pt(7, "amd48", "single-node", 1, 10), pt(7, "amd48", "single-node", 4, 5), ref},
			"Figure 7: speedups, AMD 48-core, socket-zero allocation\nthreads            1       4\ndmm             0.80    1.60\n"},
		{ServerFigureID, []Point{pt(8, "amd48", "local", 1, 4), pt(8, "amd48", "local", 4, 1), pt(8, "intel32", "interleaved", 1, 3), pt(8, "intel32", "interleaved", 4, 2)},
			"Server workload: amd48, local allocation\nthreads            1       4\ndmm             1.00    4.00\n\n" +
				"Server workload: intel32, interleaved allocation\nthreads            1       4\ndmm             1.00    1.50\n"},
		{0, []Point{pt(0, "intel32", "interleaved", 4, 3), pt(0, "intel32", "interleaved", 8, 2)},
			"Sweep: intel32, interleaved allocation\nthreads            4       8\ndmm             1.00    1.50\n"},
	} {
		if got := RenderFigure(tc.id, tc.pts); got != tc.want {
			t.Errorf("RenderFigure(%d):\ngot:\n%s\nwant:\n%s", tc.id, got, tc.want)
		}
	}
}

// TestAllFiguresShareReferencePoints: -all's list holds each Figure 5
// one-thread point once, although Figures 5, 6 and 7 all use it.
func TestAllFiguresShareReferencePoints(t *testing.T) {
	pts, err := FigurePoints([]int{4, 5, 6, 7}, FigureBenchmarks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 140 {
		t.Errorf("-all lists %d points, want 140 (150 minus Figure 6's and 7's copies of the five reference points)", len(pts))
	}
	for _, b := range FigureBenchmarks {
		n := 0
		for _, p := range pts {
			if p.Figure == 5 && p.Threads == 1 && p.Benchmark == b {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d Figure 5 one-thread points, want 1", b, n)
		}
	}
}

func TestPolicyOrderingAtScale(t *testing.T) {
	// The paper's headline (§4.3): at high thread counts, local placement
	// beats single-node placement for allocation-heavy work.
	opt := Options{Scale: 0.3, Benchmarks: []string{"synthetic"}}
	lms := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{24}, opt)[0].VirtualMs
	sms := Sweep(numa.AMD48(), mempage.PolicySingleNode, []int{24}, opt)[0].VirtualMs
	if !(lms < sms) {
		t.Errorf("at 24 threads: local %v ms should beat single-node %v ms", lms, sms)
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	// Every sweep point owns an independent deterministic Runtime, so the
	// figure must be bit-identical for any worker count.
	opt := Options{Scale: testScale, Benchmarks: []string{"quicksort", "synthetic"}}
	serial, parallel := opt, opt
	serial.Workers = 1
	parallel.Workers = 4
	threads := []int{1, 4, 8}
	a := Sweep(numa.AMD48(), mempage.PolicyLocal, threads, serial)
	b := Sweep(numa.AMD48(), mempage.PolicyLocal, threads, parallel)
	for i, pa := range a {
		pb := b[i]
		if pa.Key() != pb.Key() {
			t.Fatalf("point %d: order differs: %s vs %s", i, pa.Key(), pb.Key())
		}
		if pa.VirtualMs != pb.VirtualMs {
			t.Errorf("%s: serial %v ms, parallel %v ms", pa.Key(), pa.VirtualMs, pb.VirtualMs)
		}
	}
}

func TestParallelSweepStreamsProgress(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	opt := Options{
		Scale:      0.05,
		Benchmarks: []string{"synthetic"},
		Workers:    3,
		Progress: func(s string) {
			mu.Lock()
			lines = append(lines, s)
			mu.Unlock()
		},
	}
	threads := []int{1, 2, 4, 8}
	Sweep(numa.AMD48(), mempage.PolicyLocal, threads, opt)
	if len(lines) != len(threads) {
		t.Errorf("progress lines = %d, want %d", len(lines), len(threads))
	}
}

func TestDeterministicSweep(t *testing.T) {
	opt := Options{Scale: testScale, Benchmarks: []string{"quicksort"}}
	a := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{4}, opt)
	b := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{4}, opt)
	if a[0].VirtualMs != b[0].VirtualMs {
		t.Errorf("sweep not deterministic: %v vs %v ms", a[0].VirtualMs, b[0].VirtualMs)
	}
}

func TestServerFiguresDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance gate for the server figure: the whole sweep (both
	// machines, all three policies) must be bit-identical at any -j.
	serial, err := Measure(ServerPoints(0.25), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Measure(ServerPoints(0.25), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]bool{}
	for _, p := range serial {
		tables[p.Machine+" "+p.Policy] = true
	}
	if len(tables) != 6 || len(serial) != len(parallel) {
		t.Fatalf("expected 6 server tables, got %d (%d and %d points)", len(tables), len(serial), len(parallel))
	}
	for i, a := range serial {
		b := parallel[i]
		if a.Figure != ServerFigureID || a.Key() != b.Key() {
			t.Fatalf("point %d metadata differs: %s vs %s", i, a.Key(), b.Key())
		}
		if a.VirtualMs != b.VirtualMs {
			t.Errorf("%s: serial %v ms, parallel %v ms", a.Key(), a.VirtualMs, b.VirtualMs)
		}
	}
}

// TestKnownFailureSTWTriggerSpiral pins a known model bug (ROADMAP item 1):
// under the stop-the-world collector the global trigger is a fixed word count
// that the survivors alone exceed, so once they do, every chunk fetch
// requests another collection. Figure 5's one-thread quicksort reference
// (scale 1, amd48, local placement) runs 14 global collections; item 1's
// acceptance is at most 3. The test passes while the spiral is there and
// fails once it is gone, so the fix has to drop this mark on purpose.
func TestKnownFailureSTWTriggerSpiral(t *testing.T) {
	const fixedAt = 3
	p := Point{Benchmark: "quicksort", Machine: "amd48", Policy: "local", Threads: 1, Scale: 1}
	if _, _, err := p.Measure(nil); err != nil {
		t.Fatal(err)
	}
	if p.GlobalGCs <= fixedAt {
		t.Fatalf("ROADMAP item 1 is fixed: drop the known-failure mark (%d global collections, item 1 asks for at most %d)", p.GlobalGCs, fixedAt)
	}
	t.Logf("known failure: %d global collections, item 1 asks for at most %d", p.GlobalGCs, fixedAt)
}
