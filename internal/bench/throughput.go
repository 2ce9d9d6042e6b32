// Throughput suite: the fixed Figure 5-7 points behind the BENCH_v*.json
// baseline — the five paper benchmarks on the AMD machine under each
// page-placement policy at p=1/24/48. Its virtual_ms values are the
// virtual-time drift gate every optimisation PR must hold bit-for-bit.
package bench

import (
	"fmt"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// BaselinePoint is one benchmark/policy/thread-count measurement. VirtualMs
// is the simulation result (deterministic: it must stay bit-identical across
// engine changes); WallNs is the host wall-clock per run (machine-dependent:
// the perf trajectory later PRs compare against). With -j > 1, concurrent
// points share host cores, which inflates per-point WallNs; committed
// baselines are recorded with -j 1 so wall numbers stay comparable.
type BaselinePoint struct {
	Figure    int     `json:"figure"`
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`
	Threads   int     `json:"threads"`
	VirtualMs float64 `json:"virtual_ms"`
	WallNs    int64   `json:"wall_ns"`
}

// Key identifies the point's configuration.
func (p BaselinePoint) Key() string {
	return fmt.Sprintf("figure %d %s %s p=%d", p.Figure, p.Benchmark, p.Policy, p.Threads)
}

// VirtualEq compares the virtual result; wall time is host noise.
func (p BaselinePoint) VirtualEq(q BaselinePoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// BaselineScale matches the benchScale used by `go test -bench .` so the
// virtual-ms values in the baseline line up with the benchmark output.
const BaselineScale = 0.25

// baselineThreads are the fixed per-figure thread counts of the baseline.
var baselineThreads = []int{1, 24, 48}

// BaselinePoints enumerates the suite: figure (policy) × benchmark × thread
// count.
func BaselinePoints() []BaselinePoint {
	figures := []struct {
		id     int
		policy mempage.Policy
	}{
		{5, mempage.PolicyLocal},
		{6, mempage.PolicyInterleaved},
		{7, mempage.PolicySingleNode},
	}
	var pts []BaselinePoint
	for _, fig := range figures {
		for _, name := range FigureBenchmarks {
			for _, p := range baselineThreads {
				pts = append(pts, BaselinePoint{
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

// MeasureBaseline runs the suite through Run. par is each runtime's
// span-worker count; like the worker count it cannot change virtual results.
func MeasureBaseline(workers, par int, progress func(string)) ([]BaselinePoint, error) {
	return measureBaseline(BaselinePoints(), workers, par, progress)
}

// measureBaseline measures the given suite points in place.
func measureBaseline(pts []BaselinePoint, workers, par int, progress func(string)) ([]BaselinePoint, error) {
	topo := numa.AMD48()
	return Run(pts, workers, progress, func(pt *BaselinePoint) (string, error) {
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
