// Latency sweep: the tail-latency-under-GC companion to the throughput
// figures. Each point runs the open-loop traffic harness (workload.RunLatency)
// at one offered load on one machine/policy, under a GC-pressure heap shape
// sized so global collections fire during the run — the measurement the
// makespan figures cannot show: how collection pauses surface in p99/p99.9
// request latency, and which phase is to blame.
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

// LatencyPoint is one sweep measurement. Every field except WallNs is a
// virtual (simulated) result and must stay bit-identical across engine
// changes and across any -j worker count; the compare gate checks them
// exactly, like the virtual_ms points of the throughput baseline.
type LatencyPoint struct {
	Machine   string `json:"machine"`
	Policy    string `json:"policy"`
	Threads   int    `json:"threads"`
	Load      string `json:"load"`
	MeanGapNs int64  `json:"mean_gap_ns"`
	Clients   int    `json:"clients"`
	Requests  int    `json:"requests"`

	// GC selects the global collector: "" is the legacy stop-the-world
	// collector (the only mode of the v1 baseline — omitted from the JSON
	// so v1-era rows stay byte-identical), "concurrent" the
	// mostly-concurrent collector.
	GC string `json:"gc,omitempty"`

	VirtualMs float64 `json:"virtual_ms"`
	Check     uint64  `json:"check"`

	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`

	MeanNs       int64 `json:"mean_ns"`
	GlobalMeanNs int64 `json:"global_mean_ns"`
	LocalMeanNs  int64 `json:"local_mean_ns"`

	TailCount     int   `json:"tail_count"`
	TailMeanNs    int64 `json:"tail_mean_ns"`
	TailGlobalNs  int64 `json:"tail_global_ns"`
	TailLocalNs   int64 `json:"tail_local_ns"`
	TailGlobalMax int64 `json:"tail_global_max_ns"`

	GlobalGCs int   `json:"global_gcs"`
	WallNs    int64 `json:"wall_ns"`

	// Concurrent-collector attribution (all zero — and omitted from the
	// JSON — under the stop-the-world collector, keeping those rows
	// byte-identical to the v1 baseline). Virtual and deterministic like
	// every other field.
	MarkAssistWords int64 `json:"mark_assist_words,omitempty"`
	MarkAssistNs    int64 `json:"mark_assist_ns,omitempty"`
	BarrierHits     int64 `json:"barrier_hits,omitempty"`
	BarrierNs       int64 `json:"barrier_ns,omitempty"`
	SnapshotStwNs   int64 `json:"snapshot_stw_ns,omitempty"`
	TermStwNs       int64 `json:"termination_stw_ns,omitempty"`
}

// Key identifies the point's configuration.
func (p LatencyPoint) Key() string {
	k := fmt.Sprintf("%s %s p=%d %s-load", p.Machine, p.Policy, p.Threads, p.Load)
	if p.GC != "" {
		k += " gc=" + p.GC
	}
	return k
}

// latencyLoad is one offered-load level of the sweep.
type latencyLoad struct {
	name      string
	meanGapNs int64
}

// latencyLoads are the sweep's offered-load levels: the per-client mean
// inter-arrival gap. At "low" load the pool is mostly idle between
// requests, so the latency distribution is bimodal — microsecond medians
// with a p99.9 tail owned almost entirely by stop-the-world global
// collections (the acceptance figure). At "high" load the pool saturates:
// queueing delay dominates every percentile and the relative global-GC
// share of the tail shrinks — overload hides collector pauses inside the
// queue, which is exactly why open-loop measurement at controlled load is
// needed to see them.
var latencyLoads = []latencyLoad{
	{"low", 400_000},
	{"high", 100_000},
}

// latencyShape is the fixed request population of every sweep point:
// Clients*Requests requests per run, enough for a meaningful p99.9 (top ~4
// requests) while keeping a full sweep in CI-friendly wall time.
var latencyShape = struct{ clients, requests int }{clients: 600, requests: 6}

// LatencyConfig is the GC-pressure runtime configuration of the sweep: the
// default machine config with the heaps scaled down so minor/major/global
// collections all fire inside the short measured window (the same technique
// as the workload GC-stress tests, one step larger). Exported so gctrace can
// reproduce a sweep point exactly.
func LatencyConfig(topo *numa.Topology, policy mempage.Policy, nv int) core.Config {
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	cfg.LocalHeapWords = 16 << 10
	cfg.ChunkWords = 2 << 10
	cfg.GlobalTriggerWords = 24 * cfg.ChunkWords
	return cfg
}

// LatencyOptionsFor builds the workload options for one sweep point's
// offered load, using the sweep's fixed client population.
func LatencyOptionsFor(meanGapNs int64) workload.LatencyOptions {
	return workload.LatencyOptions{
		Clients:   latencyShape.clients,
		Requests:  latencyShape.requests,
		MeanGapNs: meanGapNs,
	}
}

// GCModes resolves a -gc selector into the sweep's collector-mode list:
// "stw" is the legacy stop-the-world collector (the empty mode string, so
// those points keep their v1 identity), "concurrent" the mostly-concurrent
// collector, "both" the full v2 matrix. Anything else is rejected, never
// clamped.
func GCModes(sel string) ([]string, error) {
	switch sel {
	case "stw":
		return []string{""}, nil
	case "concurrent":
		return []string{"concurrent"}, nil
	case "both":
		return []string{"", "concurrent"}, nil
	default:
		return nil, fmt.Errorf("unknown -gc mode %q (stw, concurrent, both)", sel)
	}
}

// LatencyPointsGC enumerates the sweep per collector mode: gc-mode × machine
// × policy × offered load.
func LatencyPointsGC(gcs []string) []LatencyPoint {
	machines := []struct {
		name    string
		threads int
	}{
		{"amd48", 48},
		{"intel32", 32},
	}
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	var pts []LatencyPoint
	for _, gc := range gcs {
		for _, m := range machines {
			for _, pol := range policies {
				for _, ld := range latencyLoads {
					pts = append(pts, LatencyPoint{
						Machine:   m.name,
						Policy:    pol.String(),
						Threads:   m.threads,
						Load:      ld.name,
						MeanGapNs: ld.meanGapNs,
						Clients:   latencyShape.clients,
						Requests:  latencyShape.requests,
						GC:        gc,
					})
				}
			}
		}
	}
	return pts
}

// MeasureLatencyGC runs the sweep over the given collector modes (see
// GCModes) through Run; mode "" is the stop-the-world collector and
// reproduces the v1 points exactly. Points are independent deterministic
// simulations, so the virtual fields are identical for any worker count and
// any span-worker count par (the engine's window scheduler is bit-identical
// at every parallelism).
func MeasureLatencyGC(gcs []string, workers, par int, progress func(string)) ([]LatencyPoint, error) {
	pts := LatencyPointsGC(gcs)
	return Run(pts, workers, progress, func(pt *LatencyPoint) (string, error) {
		pol, err := mempage.ParsePolicy(pt.Policy)
		if err != nil {
			return "", err
		}
		rt, err := harnessRuntime(pt.Machine, pt.Threads, par, func(cfg *core.Config) {
			cfg.Policy, cfg.ConcurrentGlobal = pol, pt.GC == "concurrent"
		})
		if err != nil {
			return "", err
		}
		start := time.Now()
		res := workload.RunLatency(rt, LatencyOptionsFor(pt.MeanGapNs))
		pt.WallNs = time.Since(start).Nanoseconds()
		pt.VirtualMs = float64(res.ElapsedNs) / 1e6
		pt.Check = res.Check
		pt.P50Ns, pt.P90Ns, pt.P99Ns, pt.P999Ns = res.P50, res.P90, res.P99, res.P999
		pt.MeanNs = res.All.MeanNs
		pt.GlobalMeanNs = res.All.Global.MeanNs
		pt.LocalMeanNs = res.All.Local.MeanNs
		pt.TailCount = res.Tail.Count
		pt.TailMeanNs = res.Tail.MeanNs
		pt.TailGlobalNs = res.Tail.Global.MeanNs
		pt.TailLocalNs = res.Tail.Local.MeanNs
		pt.TailGlobalMax = res.Tail.Global.MaxNs
		pt.GlobalGCs = rt.Stats.GlobalGCs
		// Zero under the stop-the-world collector; recorded (and
		// compared) only when the concurrent machinery ran.
		pt.MarkAssistWords = res.Stats.MarkAssistWords
		pt.MarkAssistNs = res.Stats.MarkAssistNs
		pt.BarrierHits = res.Stats.BarrierHits
		pt.BarrierNs = res.Stats.BarrierNs
		pt.SnapshotStwNs = rt.Stats.SnapshotNs
		pt.TermStwNs = rt.Stats.TermNs
		return fmt.Sprintf("%s: p50 %.1fus p99.9 %.1fus tail-global %.1fus (%d global GCs, %s wall)",
			pt.Key(), float64(pt.P50Ns)/1e3, float64(pt.P999Ns)/1e3,
			float64(pt.TailGlobalNs)/1e3, pt.GlobalGCs, time.Duration(pt.WallNs)), nil
	})
}

// VirtualEq reports whether two points' virtual (deterministic) fields are
// bit-identical; wall time is host noise and excluded.
func (p LatencyPoint) VirtualEq(q LatencyPoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// RenderLatency formats the sweep as the text table gcbench prints: the
// percentile ladder per point plus the tail attribution that answers "who
// owns p99.9".
func RenderLatency(pts []LatencyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Open-loop latency under GC (%d clients x %d requests per point)\n", latencyShape.clients, latencyShape.requests)
	fmt.Fprintf(&b, "%-34s %9s %9s %9s %9s   %s\n", "point", "p50", "p90", "p99", "p99.9", "p99.9 tail attribution")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-34s %9s %9s %9s %9s   global %4.0f%%  local %s  (%d global GCs)\n",
			p.Key(), us(p.P50Ns), us(p.P90Ns), us(p.P99Ns), us(p.P999Ns),
			share(p.TailGlobalNs, p.TailMeanNs)*100, us(p.TailLocalNs), p.GlobalGCs)
	}
	return b.String()
}
