package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// TestLatencyTailDominatedByGlobalGC pins the sweep's acceptance property:
// at the low-load AMD point, the p99.9 tail's latency is majority-owned by
// stop-the-world global collections — the pause attribution must show the
// global share dominating both the local-GC share and half the tail mean.
func TestLatencyTailDominatedByGlobalGC(t *testing.T) {
	rt := core.MustNewRuntime(LatencyConfig(numa.AMD48(), mempage.PolicyLocal, 48))
	res := workload.RunLatency(rt, Point{MeanGapNs: 400_000}.LatencyOptions())
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("no global collections at the low-load sweep point")
	}
	if res.Tail.Global.MeanNs <= res.Tail.Local.MeanNs {
		t.Errorf("tail global overlap %d ns <= local %d ns", res.Tail.Global.MeanNs, res.Tail.Local.MeanNs)
	}
	if share := res.Tail.GlobalShare(); share < 0.5 {
		t.Errorf("global share of p99.9 tail = %.2f, want >= 0.5 (tail mean %d ns, global %d ns)",
			share, res.Tail.MeanNs, res.Tail.Global.MeanNs)
	}
	// The distribution must be bimodal: a microsecond-scale median with a
	// pause-scale tail, not uniform saturation.
	if res.P999 < 20*res.P50 {
		t.Errorf("p99.9 %d ns vs p50 %d ns: expected a GC-pause tail well above the median", res.P999, res.P50)
	}
}

// TestUnknownCollectorFailsThePoint: a collector other than "" (stop the
// world) or "concurrent" fails its point before anything runs, instead of
// measuring the stop-the-world collector under a key no baseline has — a
// benchmark point as much as a traffic point. A point's collector, heap
// budget and machine default (amd48, local) reach its runtime whatever
// harness it runs.
func TestUnknownCollectorFailsThePoint(t *testing.T) {
	latency := LatencyPoints()[0]
	latency.GC = "bogus"
	synthetic := Point{Benchmark: "synthetic", Threads: 4, Scale: 0.05, GC: "bogus"}
	for _, bogus := range []Point{latency, synthetic} {
		if _, err := Measure([]Point{bogus}, 1, nil); err == nil || !strings.Contains(err.Error(), "gc=bogus") {
			t.Errorf("%s: got error %v, want the point's unknown-collector error", bogus.Key(), err)
		}
	}
	for _, pt := range []Point{
		{Benchmark: "synthetic", Threads: 4, Scale: 0.05, GC: "concurrent", Budget: 64},
		{Threads: 4, MeanGapNs: 400_000, Clients: 20, Requests: 2, GC: "concurrent", Budget: 64},
		{Admission: "queue", Threads: 4, MeanGapNs: 400_000, Clients: 20, Requests: 2, GC: "concurrent", Budget: 64},
	} {
		rt, _, err := pt.Measure(nil)
		if err != nil {
			t.Errorf("%s: %v", pt.Key(), err)
			continue
		}
		if cfg := rt.Cfg; !cfg.ConcurrentGlobal || cfg.GlobalBudgetChunks != 64 || cfg.Topo.Name != "amd48" || cfg.Policy != mempage.PolicyLocal {
			t.Errorf("%s: ran with concurrent %v, budget %d chunks, on %s under %v; want concurrent, 64 chunks, amd48, local",
				pt.Key(), cfg.ConcurrentGlobal, cfg.GlobalBudgetChunks, cfg.Topo.Name, cfg.Policy)
		}
	}
}

// TestTailCollapse pins the concurrent collector's acceptance figure at the
// same low-load AMD point: swapping the stop-the-world collector for the
// mostly-concurrent one must cut the global-GC share of the p99.9 tail at
// least 5x (the STW share is ~73%; only the two short STW windows count as
// stalls now), without giving back throughput — the open-loop makespan stays
// within 10% of the STW run.
func TestTailCollapse(t *testing.T) {
	point := func(concurrent bool) (workload.LatencyResult, *core.Runtime) {
		cfg := LatencyConfig(numa.AMD48(), mempage.PolicyLocal, 48)
		cfg.ConcurrentGlobal = concurrent
		rt := core.MustNewRuntime(cfg)
		return workload.RunLatency(rt, Point{MeanGapNs: 400_000}.LatencyOptions()), rt
	}
	stw, stwRT := point(false)
	con, conRT := point(true)
	if stwRT.Stats.GlobalGCs == 0 || conRT.Stats.GlobalGCs == 0 {
		t.Fatalf("both collectors must run cycles: stw %d, concurrent %d",
			stwRT.Stats.GlobalGCs, conRT.Stats.GlobalGCs)
	}
	if stw.Check != con.Check {
		t.Fatalf("reply checksums diverge across collectors: %#x vs %#x", stw.Check, con.Check)
	}
	stwShare, conShare := stw.Tail.GlobalShare(), con.Tail.GlobalShare()
	if conShare*5 > stwShare {
		t.Errorf("global share of p99.9 tail: stw %.1f%%, concurrent %.1f%% — want at least a 5x reduction",
			stwShare*100, conShare*100)
	}
	// Throughput must not regress: the open-loop run completes the same
	// request population, so the makespan is the throughput proxy.
	if ratio := float64(con.ElapsedNs) / float64(stw.ElapsedNs); ratio > 1.1 || ratio < 0.9 {
		t.Errorf("concurrent makespan %.3f ms vs stw %.3f ms (ratio %.3f): want within 10%%",
			float64(con.ElapsedNs)/1e6, float64(stw.ElapsedNs)/1e6, ratio)
	}
	// The tail itself must actually collapse, not just be re-attributed.
	if con.P999 >= stw.P999 {
		t.Errorf("p99.9 did not improve: concurrent %d ns vs stw %d ns", con.P999, stw.P999)
	}
	total := conRT.TotalStats()
	if total.MarkAssistWords == 0 {
		t.Error("concurrent run recorded no mark-assist work — the cycle was not concurrent")
	}
}
