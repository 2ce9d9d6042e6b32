package bench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// SpeedupAt returns a series' speedup at a thread count.
func (f Figure) SpeedupAt(bench string, threads int) (float64, bool) {
	for _, s := range f.Series {
		if s.Benchmark != bench {
			continue
		}
		for i, nv := range s.Threads {
			if nv == threads {
				return s.Speedup[i], true
			}
		}
	}
	return 0, false
}

// Small-scale sweeps keep these tests fast; shapes are asserted loosely.
const testScale = 0.2

func TestSweepSpeedupBaseline(t *testing.T) {
	f := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{1, 8},
		Options{Scale: testScale, Benchmarks: []string{"raytracer"}})
	sp1, ok := f.SpeedupAt("raytracer", 1)
	if !ok || sp1 != 1.0 {
		t.Fatalf("1-thread speedup = %v, want 1.0", sp1)
	}
	sp8, _ := f.SpeedupAt("raytracer", 8)
	if sp8 < 3 {
		t.Errorf("raytracer at 8 threads: speedup %.2f, want > 3", sp8)
	}
}

func TestFigureIDsAndTitles(t *testing.T) {
	for id := 4; id <= 7; id++ {
		f, err := RunFigure(id, Options{Scale: 0.05, Benchmarks: []string{"synthetic"}})
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		if f.ID != id {
			t.Errorf("figure %d reported ID %d", id, f.ID)
		}
		out := f.Render()
		if !strings.Contains(out, "Figure") || !strings.Contains(out, "synthetic") {
			t.Errorf("figure %d render missing content:\n%s", id, out)
		}
	}
	if _, err := RunFigure(3, Options{}); err == nil {
		t.Error("RunFigure(3) should fail")
	}
}

func TestExternalBaselineNormalization(t *testing.T) {
	// Figures 6/7 normalize to an external baseline; a baseline of half
	// the measured 1-thread time must halve the reported speedups.
	opt := Options{Scale: testScale, Benchmarks: []string{"synthetic"}}
	ref := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{1}, opt)
	base := ref.Baseline["synthetic"]

	opt.BaselineNs = map[string]int64{"synthetic": base / 2}
	f := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{1}, opt)
	sp, _ := f.SpeedupAt("synthetic", 1)
	if sp < 0.49 || sp > 0.51 {
		t.Errorf("normalized speedup = %.3f, want ~0.5", sp)
	}
}

func TestPolicyOrderingAtScale(t *testing.T) {
	// The paper's headline (§4.3): at high thread counts, local placement
	// beats single-node placement for allocation-heavy work.
	opt := Options{Scale: 0.3, Benchmarks: []string{"synthetic"}}
	local := Sweep(numa.AMD48(), mempage.PolicyLocal, []int{24}, opt)
	single := Sweep(numa.AMD48(), mempage.PolicySingleNode, []int{24}, opt)
	lms := local.Series[0].ElapsedNs[0]
	sms := single.Series[0].ElapsedNs[0]
	if !(lms < sms) {
		t.Errorf("at 24 threads: local %d ns should beat single-node %d ns", lms, sms)
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
	for i, sa := range a.Series {
		sb := b.Series[i]
		if sa.Benchmark != sb.Benchmark {
			t.Fatalf("series %d: benchmark order differs: %s vs %s", i, sa.Benchmark, sb.Benchmark)
		}
		for j := range sa.ElapsedNs {
			if sa.ElapsedNs[j] != sb.ElapsedNs[j] {
				t.Errorf("%s p=%d: serial %d ns, parallel %d ns", sa.Benchmark, sa.Threads[j], sa.ElapsedNs[j], sb.ElapsedNs[j])
			}
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
	if a.Series[0].ElapsedNs[0] != b.Series[0].ElapsedNs[0] {
		t.Errorf("sweep not deterministic: %d vs %d", a.Series[0].ElapsedNs[0], b.Series[0].ElapsedNs[0])
	}
}

func TestServerFiguresDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance gate for the server figure: the whole sweep (both
	// machines, all three policies) must be bit-identical at any -j.
	serial, err := RunServerFigures(Options{Scale: 0.25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunServerFigures(Options{Scale: 0.25, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 6 || len(parallel) != 6 {
		t.Fatalf("expected 6 server figures, got %d and %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.ID != ServerFigureID || a.Machine != b.Machine || a.Policy != b.Policy {
			t.Fatalf("figure %d metadata differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Series[0].ElapsedNs {
			if a.Series[0].ElapsedNs[j] != b.Series[0].ElapsedNs[j] {
				t.Errorf("%s %s p=%d: serial %d ns, parallel %d ns", a.Machine, a.Policy,
					a.Series[0].Threads[j], a.Series[0].ElapsedNs[j], b.Series[0].ElapsedNs[j])
			}
		}
	}
}
