// Package bench regenerates the paper's evaluation artifacts: the speedup
// figures (4-7) and the bandwidth table (Table 1). A figure is a sweep of a
// benchmark suite over thread counts on one machine under one page-placement
// policy; speedups are plotted relative to single-vproc performance, with
// Figures 6 and 7 normalized to Figure 5's baseline exactly as in §4.3
// ("These speedup graphs are both plotted relative to the single-processor
// performance for the AMD machine in Figure 5").
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// IntelThreads are the x-axis points of Figure 4.
var IntelThreads = []int{1, 4, 8, 12, 16, 24, 32}

// AMDThreads are the x-axis points of Figures 5-7.
var AMDThreads = []int{1, 4, 8, 12, 24, 36, 48}

// FigureBenchmarks are the five benchmarks of Figures 4-7, in legend order.
var FigureBenchmarks = []string{"dmm", "raytracer", "quicksort", "barnes-hut", "smvm"}

// ServerFigureID labels the server-workload sweep (not a paper figure).
const ServerFigureID = 8

// Series is one benchmark's speedup curve.
type Series struct {
	Benchmark string
	Threads   []int
	ElapsedNs []int64
	Speedup   []float64
}

// Figure is a full sweep.
type Figure struct {
	ID       int
	Machine  string
	Policy   mempage.Policy
	Series   []Series
	Baseline map[string]int64 // 1-thread elapsed per benchmark
}

// Options configures a sweep.
type Options struct {
	Scale float64
	// BaselineNs, if non-nil, supplies the 1-thread reference times
	// (used by Figures 6-7, which normalize to Figure 5's baseline).
	BaselineNs map[string]int64
	// Benchmarks restricts the suite (default: FigureBenchmarks).
	Benchmarks []string
	// Progress, if set, receives a line per completed run. With parallel
	// workers, lines stream in completion order (calls are serialized; see
	// Run).
	Progress func(string)
	// Workers bounds how many sweep points run concurrently; 0 means
	// GOMAXPROCS. Every point owns an independent deterministic
	// core.Runtime, so results are identical for any worker count.
	Workers int
	// Par is each runtime's core.Config.SpanWorkers: 0 or 1 runs the
	// serial engine, any N >= 2 the same span-window schedule. Virtual
	// results are bit-identical for every value; host parallelism is
	// Workers.
	Par int
}

// runOne builds the default runtime for one configuration point and runs the
// named benchmark on it. The returned wall time covers the run alone, not
// the runtime's construction.
func runOne(topo *numa.Topology, policy mempage.Policy, nv int, name string, opt Options) (*core.Runtime, workload.Result, time.Duration, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, workload.Result{}, 0, err
	}
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	cfg.SpanWorkers = opt.Par
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, workload.Result{}, 0, err
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	start := time.Now()
	res := spec.Run(rt, scale)
	return rt, res, time.Since(start), nil
}

// Sweep is MeasureSweep for callers that cannot take an error: it panics
// with the failed point's. Only benchmark/ still needs this form (the
// benchmark module compiles against the signature); RunFigure,
// RunServerFigures and gcbench use MeasureSweep.
func Sweep(topo *numa.Topology, policy mempage.Policy, threads []int, opt Options) Figure {
	fig, err := MeasureSweep(topo, policy, threads, opt)
	if err != nil {
		panic(err)
	}
	return fig
}

// MeasureSweep runs the suite over the thread counts on a machine/policy. The
// (benchmark, thread-count) points are independent — each owns its own
// deterministic Runtime — so they go through Run on opt.Workers goroutines;
// the figure is identical for any worker count. A point that fails — an
// unregistered benchmark name, a thread count the machine cannot seat, a
// simulation that panicked (a workload scaled past what a chunk can hold) —
// fails the sweep with that point's error.
func MeasureSweep(topo *numa.Topology, policy mempage.Policy, threads []int, opt Options) (Figure, error) {
	benches := opt.Benchmarks
	if benches == nil {
		benches = FigureBenchmarks
	}
	type point struct {
		bench     string
		nv        int
		elapsedNs int64
	}
	pts := make([]point, 0, len(benches)*len(threads))
	for _, b := range benches {
		for _, nv := range threads {
			pts = append(pts, point{bench: b, nv: nv})
		}
	}
	_, err := Run(pts, opt.Workers, opt.Progress, func(pt *point) (string, error) {
		_, res, _, err := runOne(topo, policy, pt.nv, pt.bench, opt)
		if err != nil {
			return "", err
		}
		pt.elapsedNs = res.ElapsedNs
		return fmt.Sprintf("%s %s %s p=%d: %.3f ms", topo.Name, policy, pt.bench, pt.nv, float64(res.ElapsedNs)/1e6), nil
	})
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{Machine: topo.Name, Policy: policy, Baseline: map[string]int64{}}
	for bi, b := range benches {
		s := Series{Benchmark: b, Threads: threads}
		for _, pt := range pts[bi*len(threads) : (bi+1)*len(threads)] {
			s.ElapsedNs = append(s.ElapsedNs, pt.elapsedNs)
		}
		base := s.ElapsedNs[0]
		if opt.BaselineNs != nil {
			if v, ok := opt.BaselineNs[b]; ok {
				base = v
			}
		}
		fig.Baseline[b] = base
		for _, e := range s.ElapsedNs {
			s.Speedup = append(s.Speedup, float64(base)/float64(e))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// RunFigure regenerates one of the paper's speedup figures (4, 5, 6 or 7).
// Figures 6 and 7 internally compute Figure 5's 1-thread baselines first so
// the normalization matches the paper.
func RunFigure(id int, opt Options) (Figure, error) {
	topo, policy, threads := numa.AMD48(), mempage.PolicyLocal, AMDThreads
	switch id {
	case 4:
		topo, threads = numa.Intel32(), IntelThreads
	case 5:
	case 6, 7:
		// Baseline: 1-thread local-policy runs (Figure 5's origin).
		base := opt
		base.BaselineNs = nil
		ref, err := MeasureSweep(topo, mempage.PolicyLocal, []int{1}, base)
		if err != nil {
			return Figure{}, err
		}
		opt.BaselineNs = ref.Baseline
		policy = mempage.PolicyInterleaved
		if id == 7 {
			policy = mempage.PolicySingleNode
		}
	default:
		return Figure{}, fmt.Errorf("bench: no figure %d (want 4-7)", id)
	}
	f, err := MeasureSweep(topo, policy, threads, opt)
	if err != nil {
		return Figure{}, err
	}
	f.ID = id
	return f, nil
}

// RunServerFigures sweeps the message-passing server workload over both
// machine presets under all three page-placement policies — the "millions
// of users" traffic shape next to the paper's compute benchmarks. Each
// sweep is a Figure; results are deterministic for any worker count.
func RunServerFigures(opt Options) ([]Figure, error) {
	opt.Benchmarks = []string{"server"}
	opt.BaselineNs = nil
	machines := []struct {
		topo    *numa.Topology
		threads []int
	}{
		{numa.AMD48(), AMDThreads},
		{numa.Intel32(), IntelThreads},
	}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	var out []Figure
	for _, m := range machines {
		for _, pol := range policies {
			f, err := MeasureSweep(m.topo, pol, m.threads, opt)
			if err != nil {
				return nil, err
			}
			f.ID = ServerFigureID
			out = append(out, f)
		}
	}
	return out, nil
}

// Render formats a figure as the text table the harness reports.
func (f Figure) Render() string {
	var b strings.Builder
	title := map[int]string{
		4: "Figure 4: speedups, Intel 32-core, local allocation",
		5: "Figure 5: speedups, AMD 48-core, local allocation",
		6: "Figure 6: speedups, AMD 48-core, interleaved allocation",
		7: "Figure 7: speedups, AMD 48-core, socket-zero allocation",
	}[f.ID]
	if title == "" {
		if f.ID == ServerFigureID {
			title = fmt.Sprintf("Server workload: %s, %s allocation", f.Machine, f.Policy)
		} else {
			title = fmt.Sprintf("Sweep: %s, %s allocation", f.Machine, f.Policy)
		}
	}
	fmt.Fprintf(&b, "%s\n", title)
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", "threads")
	for _, nv := range f.Series[0].Threads {
		fmt.Fprintf(&b, "%8d", nv)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-12s", s.Benchmark)
		for _, sp := range s.Speedup {
			fmt.Fprintf(&b, "%8.2f", sp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
