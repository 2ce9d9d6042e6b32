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

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// latencyLoads are the sweep's offered-load levels: the per-client mean
// inter-arrival gap. At "low" load the pool is mostly idle between
// requests, so the latency distribution is bimodal — microsecond medians
// with a p99.9 tail owned almost entirely by stop-the-world global
// collections (the acceptance figure). At "high" load the pool saturates:
// queueing delay dominates every percentile and the relative global-GC
// share of the tail shrinks — overload hides collector pauses inside the
// queue, which is exactly why open-loop measurement at controlled load is
// needed to see them.
var latencyLoads = []offeredLoad{
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

// LatencyPoints enumerates the sweep behind the committed LATENCY_v*.json
// baseline: collector (stop-the-world, then mostly-concurrent) × machine ×
// policy × offered load.
func LatencyPoints() []Point {
	machines := []struct {
		name    string
		threads int
	}{
		{"amd48", 48},
		{"intel32", 32},
	}
	var pts []Point
	for _, gc := range []string{"", "concurrent"} {
		for _, m := range machines {
			for _, pol := range policies {
				for _, ld := range latencyLoads {
					pts = append(pts, Point{
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

// RenderLatency formats the sweep as the text table gcbench prints: the
// percentile ladder per point plus the tail attribution that answers "who
// owns p99.9".
func RenderLatency(pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	fmt.Fprintf(&b, "Open-loop latency under GC (%d clients x %d requests per point)\n", latencyShape.clients, latencyShape.requests)
	fmt.Fprintf(&b, "%-*s %9s %9s %9s %9s   %s\n", w, "point", "p50", "p90", "p99", "p99.9", "p99.9 tail attribution")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s %9s %9s %9s %9s   global %4.0f%%  local %s  (%d global GCs)\n",
			w, p.Key(), us(p.P50Ns), us(p.P90Ns), us(p.P99Ns), us(p.P999Ns),
			share(p.TailGlobalNs, p.TailMeanNs)*100, us(p.TailLocalNs), p.GlobalGCs)
	}
	return b.String()
}
