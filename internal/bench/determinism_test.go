package bench

import (
	"slices"
	"testing"

	"repro/internal/vtime"
)

// sameAtAnyParallelism measures a sweep serially (-j 1 -par 1) and in
// parallel (-j 4 -par 2) and requires the virtual fields to agree point by
// point. The parallel arm runs the engine's window scheduler, so this
// doubles as the bench-layer proof that span windows never change a
// schedule.
func sameAtAnyParallelism(t *testing.T, measure func(workers, par int) ([]Point, error)) {
	t.Helper()
	serial, err := measure(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := measure(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("point counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].VirtualEq(parallel[i]) {
			t.Errorf("%s differs across -j/-par:\n  -j1 -par1: %+v\n  -j4 -par2: %+v", serial[i].Key(), serial[i], parallel[i])
		}
	}
}

// TestSweepsDeterministicAcrossWorkers: every sweep kind's virtual results
// must be bit-identical for any -j worker count and any -par span-worker
// count. Each kind's points are trimmed from its enumeration to keep the
// test fast while still covering its distinctive paths (retry, nack and
// fault points; the emergency ladder and squeeze faults; vproc and board
// kills with a hedged point). The rack presets' far tier is left to the CI
// rack-scale gate, which re-measures rack256 at -par 2 against a serially
// recorded file.
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
			return slices.DeleteFunc(FailoverPoints(), func(p Point) bool { return p.Replicas != 2 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameAtAnyParallelism(t, func(workers, par int) ([]Point, error) {
				return Measure(tc.points(), workers, par, nil)
			})
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
			rt, _, err := p.Measure(0, nil)
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
