// Throughput suite: the fixed Figure 5-7 points behind the BENCH_v*.json
// baseline — the five paper benchmarks on the AMD machine under each
// page-placement policy at p=1/24/48. Its virtual_ms values are the
// virtual-time drift gate every optimisation PR must hold bit-for-bit. A
// point records what every benchmark point does (Point.Measure): the
// virtual makespan, checksum, traffic split and global collections, and
// WallNs, the host wall-clock per run (machine-dependent: the perf
// trajectory later PRs compare against). With -j > 1, concurrent points
// share host cores, which inflates per-point WallNs; committed baselines are
// recorded with -j 1 so wall numbers stay comparable.
package bench

// BaselineScale matches the benchScale used by `go test -bench .` so the
// virtual-ms values in the baseline line up with the benchmark output. The
// rack-scale sweep runs at it too.
const BaselineScale = 0.25

// baselineThreads are the fixed per-figure thread counts of the baseline.
var baselineThreads = []int{1, 24, 48}

// BaselinePoints enumerates the suite: figure (policy) × benchmark × thread
// count. The points name no machine and no scale, so that their keys stay
// those of the committed files: they run at the runner's defaults, the AMD
// machine and BaselineScale.
func BaselinePoints() []Point {
	var pts []Point
	for _, id := range []int{5, 6, 7} {
		pts = append(pts, SweepPoints(Point{Figure: id, Policy: figures[id].policy.String()}, FigureBenchmarks, baselineThreads)...)
	}
	return pts
}
