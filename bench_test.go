package manticore

import (
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// The benchmarks in this file regenerate the paper's evaluation artifacts.
// Each reported metric is virtual time from the machine model, surfaced
// through testing.B custom metrics; b.N repetitions re-run the deterministic
// simulation. The full sweeps behind Figures 4-7 are produced by
// cmd/gcbench; the benchmarks here cover each figure's characteristic
// points so `go test -bench .` exercises every experiment.

// benchScale keeps `go test -bench .` affordable; cmd/gcbench uses 1.0.
const benchScale = 0.25

// --- Table 1: theoretical bandwidths -------------------------------------

func BenchmarkTable1Bandwidth(b *testing.B) {
	for _, name := range []string{"amd48", "intel32"} {
		b.Run(name, func(b *testing.B) {
			topo, _ := numa.Preset(name)
			m := numa.NewMachine(topo)
			for i := 0; i < b.N; i++ {
				_ = m.BandwidthTable()
			}
			b.ReportMetric(topo.LocalBW, "local-GB/s")
			b.ReportMetric(topo.RemoteBW, "remote-GB/s")
		})
	}
}

// --- Figures 4-7: speedup sweeps ------------------------------------------

// The characteristic thread counts benchmarked per figure (1, the knee, and
// the full machine).
var intelPoints = []int{1, 16, 32}
var amdPoints = []int{1, 24, 48}

// benchFigure runs each point of the figure's grid (bench.SweepPoints) through
// the sweep runner and reports its virtual milliseconds per operation.
func benchFigure(b *testing.B, machine string, policy mempage.Policy, threads []int) {
	proto := bench.Point{Machine: machine, Policy: policy.String(), Scale: benchScale}
	for _, pt := range bench.SweepPoints(proto, bench.FigureBenchmarks, threads) {
		b.Run(pt.Benchmark+"/p="+strconv.Itoa(pt.Threads), func(b *testing.B) {
			var got []bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				if got, err = bench.Measure([]bench.Point{pt}, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(got[0].VirtualMs, "virtual-ms")
		})
	}
}

func BenchmarkFigure4IntelLocal(b *testing.B) {
	benchFigure(b, "intel32", mempage.PolicyLocal, intelPoints)
}

func BenchmarkFigure5AMDLocal(b *testing.B) {
	benchFigure(b, "amd48", mempage.PolicyLocal, amdPoints)
}

func BenchmarkFigure6AMDInterleaved(b *testing.B) {
	benchFigure(b, "amd48", mempage.PolicyInterleaved, amdPoints)
}

func BenchmarkFigure7AMDSocketZero(b *testing.B) {
	benchFigure(b, "amd48", mempage.PolicySingleNode, amdPoints)
}

// --- Ablations: one core.Config design knob each ---------------------------

// ablationRun executes the synthetic churn benchmark with one design knob
// toggled and reports virtual time plus the GC counters the knob affects.
// The configuration is deliberately GC-heavy (small local heaps, low global
// trigger, large churn) so the knobs actually engage.
func ablationRun(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	spec, _ := workload.ByName("synthetic")
	var res workload.Result
	var rt *core.Runtime
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(numa.AMD48(), 16)
		cfg.LocalHeapWords = 8 << 10
		cfg.ChunkWords = 2 << 10
		cfg.GlobalTriggerWords = cfg.NumVProcs * cfg.ChunkWords
		mutate(&cfg)
		rt = core.MustNewRuntime(cfg)
		res = spec.Run(rt, 8)
	}
	s := res.Stats
	b.ReportMetric(float64(res.ElapsedNs)/1e6, "virtual-ms")
	b.ReportMetric(float64(s.MajorCopied), "major-copied-words")
	b.ReportMetric(float64(s.PromotedWords), "promoted-words")
	b.ReportMetric(float64(rt.Stats.GlobalGCs), "global-gcs")
	b.ReportMetric(float64(rt.Stats.GlobalNs)/1e6, "global-gc-ms")
	b.ReportMetric(float64(rt.Stats.CrossNodeScanned), "cross-node-scans")
	b.ReportMetric(float64(rt.Chunks.Created), "chunks-created")
	b.ReportMetric(float64(rt.Chunks.Reused), "chunks-reused")
}

func BenchmarkAblationYoungData(b *testing.B) {
	b.Run("young-partition=on", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) { c.YoungPartition = true })
	})
	b.Run("young-partition=off", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) { c.YoungPartition = false })
	})
}

func BenchmarkAblationChunkAffinity(b *testing.B) {
	// Run under interleaved placement, where chunk home nodes actually
	// differ and affinity-blind reuse hands out remote chunks.
	b.Run("node-affine=on", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) {
			c.Policy = mempage.PolicyInterleaved
			c.NodeAffineChunks = true
		})
	})
	b.Run("node-affine=off", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) {
			c.Policy = mempage.PolicyInterleaved
			c.NodeAffineChunks = false
		})
	})
}

func BenchmarkAblationNodeLocalScan(b *testing.B) {
	// Interleaved placement spreads to-space chunks across nodes.
	// cross-node-scans counts the scan-list chunks a vproc took off their
	// home node: under node-local lists only when its own node's list was
	// empty, under the shared list at any pop.
	b.Run("node-local-scan=on", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) {
			c.Policy = mempage.PolicyInterleaved
			c.NodeLocalScan = true
		})
	})
	b.Run("node-local-scan=off", func(b *testing.B) {
		ablationRun(b, func(c *core.Config) {
			c.Policy = mempage.PolicyInterleaved
			c.NodeLocalScan = false
		})
	})
}

func BenchmarkAblationLazyPromotion(b *testing.B) {
	// Lazy promotion matters where work is stolen: use quicksort.
	run := func(b *testing.B, lazy bool) {
		spec, _ := workload.ByName("quicksort")
		var res workload.Result
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(numa.AMD48(), 16)
			cfg.LazyPromotion = lazy
			rt := core.MustNewRuntime(cfg)
			res = spec.Run(rt, 0.25)
		}
		b.ReportMetric(float64(res.ElapsedNs)/1e6, "virtual-ms")
		b.ReportMetric(float64(res.Stats.PromotedWords), "promoted-words")
	}
	b.Run("lazy", func(b *testing.B) { run(b, true) })
	b.Run("eager", func(b *testing.B) { run(b, false) })
}

func BenchmarkAblationLocalHeapSize(b *testing.B) {
	for _, words := range []int{16 << 10, 64 << 10, 256 << 10} {
		words := words
		b.Run("words="+strconv.Itoa(words), func(b *testing.B) {
			ablationRun(b, func(c *core.Config) { c.LocalHeapWords = words })
		})
	}
}
