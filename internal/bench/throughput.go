// Throughput suite: the fixed Figure 5-7 points behind the BENCH_v*.json
// baseline — the five paper benchmarks on the AMD machine under each
// page-placement policy at p=1/24/48. Its virtual_ms values are the
// virtual-time drift gate every optimisation PR must hold bit-for-bit. A
// point records VirtualMs, the simulation result, and WallNs, the host
// wall-clock per run (machine-dependent: the perf trajectory later PRs
// compare against). With -j > 1, concurrent points share host cores, which
// inflates per-point WallNs; committed baselines are recorded with -j 1 so
// wall numbers stay comparable.
package bench

import (
	"fmt"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// BaselineScale matches the benchScale used by `go test -bench .` so the
// virtual-ms values in the baseline line up with the benchmark output. The
// rack-scale sweep runs at it too.
const BaselineScale = 0.25

// baselineThreads are the fixed per-figure thread counts of the baseline.
var baselineThreads = []int{1, 24, 48}

// BaselinePoints enumerates the suite: figure (policy) × benchmark × thread
// count.
func BaselinePoints() []Point {
	figures := []struct {
		id     int
		policy mempage.Policy
	}{
		{5, mempage.PolicyLocal},
		{6, mempage.PolicyInterleaved},
		{7, mempage.PolicySingleNode},
	}
	var pts []Point
	for _, fig := range figures {
		for _, name := range FigureBenchmarks {
			for _, p := range baselineThreads {
				pts = append(pts, Point{
					Figure:    fig.id,
					Benchmark: name,
					Policy:    fig.policy.String(),
					Threads:   p,
				})
			}
		}
	}
	return pts
}

// MeasureBaseline runs suite points (BaselinePoints) through Run. par is
// each runtime's span-worker count; like the worker count it cannot change
// virtual results.
func MeasureBaseline(pts []Point, workers, par int, progress func(string)) ([]Point, error) {
	topo := numa.AMD48()
	return Run(pts, workers, progress, func(pt *Point) (string, error) {
		pol, err := mempage.ParsePolicy(pt.Policy)
		if err != nil {
			return "", err
		}
		_, res, wall, err := runOne(topo, pol, pt.Threads, pt.Benchmark, Options{Scale: BaselineScale, Par: par})
		if err != nil {
			return "", err
		}
		pt.WallNs = wall.Nanoseconds()
		pt.VirtualMs = float64(res.ElapsedNs) / 1e6
		return fmt.Sprintf("%s: %.4f virtual-ms, %s wall", pt.Key(), pt.VirtualMs, wall), nil
	})
}
