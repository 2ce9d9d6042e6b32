package bench

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vtime"
)

// measureSpans is Measure on workers goroutines with each point's runtime
// built with two span workers: the point's own harness and record around an
// engine that runs interaction-free idle machines in span windows. It also
// returns how many windows the points opened.
func measureSpans(pts []Point, workers int) ([]Point, int64, error) {
	var mu sync.Mutex
	var windows int64
	pts, err := Run(pts, workers, nil, func(pt *Point) (string, error) {
		cfg, run, err := pt.harness()
		if err != nil {
			return "", err
		}
		cfg.SpanWorkers = 2
		rt, err := core.NewRuntime(cfg)
		if err != nil {
			return "", err
		}
		start := time.Now()
		pt.record(rt, run(rt), time.Since(start))
		mu.Lock()
		windows += rt.Eng.SpanStats().Windows
		mu.Unlock()
		return pt.Key(), nil
	})
	return pts, windows, err
}

// sameAtAnyParallelism measures a sweep serially (-j 1) and in parallel
// (-j 4, two span workers per runtime) and requires the virtual fields to
// agree point by point. The parallel arm runs the engine's window
// scheduler, so this doubles as the bench-layer proof that span windows
// never change a schedule.
func sameAtAnyParallelism(t *testing.T, pts func() []Point) {
	t.Helper()
	serial, err := Measure(pts(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, windows, err := measureSpans(pts(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 {
		t.Errorf("no span window opened")
	}
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("point counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].VirtualEq(parallel[i]) {
			t.Errorf("%s differs across -j and span windows:\n  -j1 serial: %+v\n  -j4 spans:  %+v", serial[i].Key(), serial[i], parallel[i])
		}
	}
}

// TestSweepsDeterministicAcrossWorkers: every sweep kind's virtual results
// must be bit-identical for any -j worker count and under span windows.
// Each kind's points are trimmed from its enumeration to keep the test
// fast while still covering its distinctive paths (retry, nack and fault
// points; the emergency ladder and squeeze faults; vproc and board kills
// on rack256, with a hedged point). The rack presets' compute points are
// left to TestSpanWorkersBitIdentical's rack256 row in internal/core.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		points func() []Point
	}{
		{"throughput", func() []Point {
			return slices.DeleteFunc(BaselinePoints(), func(p Point) bool { return p.Threads != 24 })
		}},
		{"latency", func() []Point {
			return slices.DeleteFunc(LatencyPoints(), func(p Point) bool { return p.GC != "" })
		}},
		{"overload", func() []Point {
			return slices.DeleteFunc(OverloadPoints(), func(p Point) bool {
				return p.Admission == "none" || p.Load == "0.4x" || p.Load == "2x"
			})
		}},
		{"mempressure", func() []Point {
			return slices.DeleteFunc(MempressurePoints(), func(p Point) bool { return p.Budget != 0 && p.Budget != 16 })
		}},
		// Built by hand rather than trimmed from ScalePoints: the paper
		// machines at scale 0.1 instead of the sweep's 0.25, to stay fast.
		{"rackscale", func() []Point {
			return []Point{
				{Machine: "amd48", Policy: "local", Benchmark: "smvm", Threads: 48, Scale: 0.1},
				{Machine: "amd48", Policy: "interleaved", Benchmark: "smvm", Threads: 48, Scale: 0.1},
				{Machine: "amd48", Policy: "single-node", Benchmark: "smvm", Threads: 48, Scale: 0.1},
				{Machine: "intel32", Policy: "local", Benchmark: "smvm", Threads: 32, Scale: 0.1},
				{Machine: "intel32", Policy: "interleaved", Benchmark: "smvm", Threads: 32, Scale: 0.1},
				{Machine: "intel32", Policy: "single-node", Benchmark: "smvm", Threads: 32, Scale: 0.1},
			}
		}},
		{"failover", func() []Point {
			return slices.DeleteFunc(FailoverPoints(), func(p Point) bool { return p.Replicas != 2 && p.Crash != "board" })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameAtAnyParallelism(t, tc.points)
		})
	}
}

// TestEngineStatsDeterministic: the engine's scheduler counters belong to
// one simulation, so a point reports the same counts on a rerun and for any
// -j — sweep workers running other engines beside it must not leak in.
func TestEngineStatsDeterministic(t *testing.T) {
	type point struct {
		bench string
		nv    int
		stats vtime.EngineStats
	}
	measure := func(workers int) []point {
		pts := []point{{bench: "dmm", nv: 8}, {bench: "smvm", nv: 24}, {bench: "raytracer", nv: 48}, {bench: "smvm", nv: 48}}
		pts, err := Run(pts, workers, nil, func(pt *point) (string, error) {
			p := Point{Benchmark: pt.bench, Machine: "amd48", Policy: "local", Threads: pt.nv, Scale: 0.1}
			rt, _, err := p.Measure(nil)
			if err != nil {
				return "", err
			}
			pt.stats = rt.Eng.Stats()
			return pt.bench, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := measure(1)
	for name, other := range map[string][]point{"a rerun": measure(1), "-j 4": measure(4)} {
		for i, pt := range serial {
			if other[i].stats != pt.stats {
				t.Errorf("%s p=%d: engine stats differ on %s:\n  -j 1:  %+v\n  other: %+v", pt.bench, pt.nv, name, pt.stats, other[i].stats)
			}
		}
	}
	for _, pt := range serial {
		if st := pt.stats; st.Grants == 0 || st.InlineTurns == 0 || st.Pushes == 0 || st.Rekeys == 0 {
			t.Errorf("%s p=%d: a counter never moved: %+v", pt.bench, pt.nv, st)
		}
	}
}
