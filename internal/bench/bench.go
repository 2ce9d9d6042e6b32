// Package bench regenerates the paper's evaluation: the speedup figures
// (4-7), the server-workload sweep beside them, the throughput baseline
// suite, and the latency, overload, memory-pressure, rack-scale and
// failover sweeps. Every sweep is a list of Point, measured by the one
// runner (Measure: each point one Point.Measure, on the worker pool Run). A
// figure is the benchmark x thread-count grid of one machine under one
// page-placement policy (FigurePoints), measured like every other list and
// printed as speedups relative to single-vproc performance (RenderFigure),
// with Figures 6 and 7 normalized to Figure 5's baseline exactly as in §4.3
// ("These speedup graphs are both plotted relative to the single-processor
// performance for the AMD machine in Figure 5").
package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/mempage"
	"repro/internal/numa"
)

// IntelThreads are the x-axis points of Figure 4.
var IntelThreads = []int{1, 4, 8, 12, 16, 24, 32}

// AMDThreads are the x-axis points of Figures 5-7.
var AMDThreads = []int{1, 4, 8, 12, 24, 36, 48}

// FigureBenchmarks are the five benchmarks of Figures 4-7, in legend order.
var FigureBenchmarks = []string{"dmm", "raytracer", "quicksort", "barnes-hut", "smvm"}

// ServerFigureID labels the server-workload sweep (not a paper figure).
const ServerFigureID = 8

// policies are the three page-placement policies, in the figures' order.
var policies = []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}

// figures are the paper's speedup figures by id. ref, when set, is the
// figure whose one-thread points a figure is normalized to.
var figures = map[int]struct {
	title   string
	machine string
	policy  mempage.Policy
	threads []int
	ref     int
}{
	4: {"Figure 4: speedups, Intel 32-core, local allocation", "intel32", mempage.PolicyLocal, IntelThreads, 0},
	5: {"Figure 5: speedups, AMD 48-core, local allocation", "amd48", mempage.PolicyLocal, AMDThreads, 0},
	6: {"Figure 6: speedups, AMD 48-core, interleaved allocation", "amd48", mempage.PolicyInterleaved, AMDThreads, 5},
	7: {"Figure 7: speedups, AMD 48-core, socket-zero allocation", "amd48", mempage.PolicySingleNode, AMDThreads, 5},
}

// Options configures how a sweep runs: its points' workers and progress,
// and for Sweep the points themselves.
type Options struct {
	// Scale is Sweep's workload scale (0: BaselineScale).
	Scale float64
	// Benchmarks restricts Sweep's suite (default: FigureBenchmarks).
	Benchmarks []string
	// Progress, if set, receives a line per completed run. With parallel
	// workers, lines stream in completion order (calls are serialized; see
	// Run).
	Progress func(string)
	// Workers bounds how many sweep points run concurrently; 0 means
	// GOMAXPROCS. Every point owns an independent deterministic
	// core.Runtime, so results are identical for any worker count.
	Workers int
}

// Sweep measures the suite over the thread counts on a machine preset under
// a policy (SweepPoints through Measure) and panics with a failed
// point's error. Only benchmark/ still needs this form (the benchmark module
// compiles against the signature); gcbench measures its point lists itself.
func Sweep(topo *numa.Topology, policy mempage.Policy, threads []int, opt Options) []Point {
	benches := opt.Benchmarks
	if benches == nil {
		benches = FigureBenchmarks
	}
	proto := Point{Machine: topo.Name, Policy: policy.String(), Scale: opt.Scale}
	pts, err := Measure(SweepPoints(proto, benches, threads), opt.Workers, opt.Progress)
	if err != nil {
		panic(err)
	}
	return pts
}

// SweepPoints is the benchmark x thread-count grid around proto,
// benchmark-major: one point per pair, proto with its Benchmark and Threads
// set.
func SweepPoints(proto Point, benches []string, threads []int) []Point {
	pts := make([]Point, 0, len(benches)*len(threads))
	for _, b := range benches {
		for _, nv := range threads {
			p := proto
			p.Benchmark, p.Threads = b, nv
			pts = append(pts, p)
		}
	}
	return pts
}

// FigurePoints is the point list of the paper's figures ids (4-7) over
// benches at a workload scale: each figure's grid on its machine, over that
// machine's thread counts, under its policy. Figures 6 and 7 carry the
// Figure 5 one-thread points they are normalized to, and a point that
// several of the figures hold is listed once.
func FigurePoints(ids []int, benches []string, scale float64) ([]Point, error) {
	var pts []Point
	add := func(id int, threads []int) {
		f := figures[id]
		proto := Point{Figure: id, Machine: f.machine, Policy: f.policy.String(), Scale: scale}
		for _, p := range SweepPoints(proto, benches, threads) {
			if !slices.Contains(pts, p) {
				pts = append(pts, p)
			}
		}
	}
	for _, id := range ids {
		f, ok := figures[id]
		if !ok {
			return nil, fmt.Errorf("bench: no figure %d (want 4-7)", id)
		}
		if f.ref != 0 {
			add(f.ref, []int{1})
		}
		add(id, f.threads)
	}
	return pts, nil
}

// ServerPoints is the server-workload sweep (ServerFigureID): the
// message-passing server on both machines, over their figure thread counts,
// under all three page-placement policies — the "millions of users" traffic
// shape next to the paper's compute benchmarks.
func ServerPoints(scale float64) []Point {
	var pts []Point
	for _, id := range []int{5, 4} { // the AMD machine's table first
		f := figures[id]
		for _, pol := range policies {
			proto := Point{Figure: ServerFigureID, Machine: f.machine, Policy: pol.String(), Scale: scale}
			pts = append(pts, SweepPoints(proto, []string{"server"}, f.threads)...)
		}
	}
	return pts
}

// RenderFigure formats figure id's tables from measured points: a table per
// run of the figure's points on one machine under one policy (the server
// sweep has six, a paper figure or a custom sweep, id 0, one), with a row of
// speedups per benchmark. A speedup divides the benchmark's reference
// makespan by the point's: the Figure 5 one-thread point for Figures 6 and 7
// (pts must hold it, as FigurePoints' list does), the benchmark's first
// point in its table otherwise.
func RenderFigure(id int, pts []Point) string {
	var rows [][]Point // SweepPoints lists a table's points benchmark-major
	for _, p := range pts {
		if p.Figure != id {
			continue
		}
		if n := len(rows); n == 0 || rows[n-1][0].Benchmark != p.Benchmark || !sameTable(rows[n-1][0], p) {
			rows = append(rows, nil)
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], p)
	}
	var b strings.Builder
	for i, row := range rows {
		base := row[0]
		if i == 0 || !sameTable(rows[i-1][0], base) {
			title := figures[id].title
			if id == ServerFigureID {
				title = fmt.Sprintf("Server workload: %s, %s allocation", base.Machine, base.Policy)
			} else if title == "" {
				title = fmt.Sprintf("Sweep: %s, %s allocation", base.Machine, base.Policy)
			}
			if i > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s\n%-12s", title, "threads")
			for _, p := range row {
				fmt.Fprintf(&b, "%8d", p.Threads)
			}
			b.WriteByte('\n')
		}
		if ref := figures[id].ref; ref != 0 {
			base = pts[slices.IndexFunc(pts, func(q Point) bool {
				return q.Figure == ref && q.Threads == 1 && q.Benchmark == base.Benchmark
			})]
		}
		fmt.Fprintf(&b, "%-12s", base.Benchmark)
		for _, p := range row {
			fmt.Fprintf(&b, "%8.2f", float64(elapsedNs(base))/float64(elapsedNs(p)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sameTable reports whether two points share a machine and a policy.
func sameTable(p, q Point) bool {
	return p.Machine == q.Machine && p.Policy == q.Policy
}

// elapsedNs is the integer virtual makespan VirtualMs was computed from, so
// a speedup is the exact ratio of the two runs' makespans.
func elapsedNs(p Point) int64 {
	return int64(math.Round(p.VirtualMs * 1e6))
}
