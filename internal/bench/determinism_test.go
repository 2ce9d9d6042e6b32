package bench

import (
	"testing"

	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// virtualPoint is the contract every sweep kind's point type meets.
type virtualPoint[P any] interface {
	Key() string
	VirtualEq(P) bool
}

// sameAtAnyParallelism measures a sweep serially (-j 1 -par 1) and in
// parallel (-j 4 -par 2) and requires the virtual fields to agree point by
// point. The parallel arm runs the engine's window scheduler, so this
// doubles as the bench-layer proof that span windows never change a
// schedule.
func sameAtAnyParallelism[P virtualPoint[P]](t *testing.T, measure func(workers, par int) ([]P, error)) {
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
// count. The sweeps are trimmed to keep the test fast while still covering
// each kind's distinctive paths (retry, nack and fault points; the emergency
// ladder and squeeze faults; vproc and board kills with a hedged point). The
// rack presets' far tier is left to the CI rack-scale gate, which re-measures
// rack256 at -par 4 against a serially recorded file.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	t.Run("throughput", func(t *testing.T) {
		sameAtAnyParallelism(t, func(workers, par int) ([]BaselinePoint, error) {
			var pts []BaselinePoint
			for _, pt := range BaselinePoints() {
				if pt.Threads == 24 {
					pts = append(pts, pt)
				}
			}
			return measureBaseline(pts, workers, par, nil)
		})
	})
	t.Run("latency", func(t *testing.T) {
		sameAtAnyParallelism(t, func(workers, par int) ([]LatencyPoint, error) {
			return MeasureLatencyGC([]string{""}, workers, par, nil)
		})
	})
	t.Run("overload", func(t *testing.T) {
		sw := OverloadSweep{
			Loads:      []OverloadLoad{{"1x", 160_000}, {"4x", 40_000}},
			Admissions: []workload.AdmissionPolicy{workload.AdmitQueue, workload.AdmitDeadline},
			FaultSeed:  OverloadFaultSeed,
		}
		sameAtAnyParallelism(t, func(workers, par int) ([]OverloadPoint, error) {
			return MeasureOverload(sw, workers, par, nil)
		})
	})
	t.Run("mempressure", func(t *testing.T) {
		sw := DefaultMempressureSweep()
		sw.Budgets = []int{0, 16}
		sameAtAnyParallelism(t, func(workers, par int) ([]MempressurePoint, error) {
			return MeasureMempressure(sw, workers, par, nil)
		})
	})
	t.Run("rackscale", func(t *testing.T) {
		sw := ScaleSweep{Machines: []string{"amd48", "intel32"}, Benchmarks: []string{"smvm"}, Scale: 0.1}
		sameAtAnyParallelism(t, func(workers, par int) ([]ScalePoint, error) {
			return MeasureScale(sw, workers, par, nil)
		})
	})
	t.Run("failover", func(t *testing.T) {
		sw := DefaultFailoverSweep()
		sw.Replicas = []int{2}
		sameAtAnyParallelism(t, func(workers, par int) ([]FailoverPoint, error) {
			return MeasureFailover(sw, workers, par, nil)
		})
	})
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
			rt, _, _, err := runOne(numa.AMD48(), mempage.PolicyLocal, pt.nv, pt.bench, Options{Scale: 0.1})
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
