// Failover sweep: the serving harness with replicated lanes, measured
// before and after injected crash faults, per machine × replication level ×
// crash schedule. Each point runs workload.RunServe under the latency
// sweep's GC-pressure heap shape; the crash schedule kills a single
// lane-home vproc on the flat machines and a whole board — half the
// machine, two replica homes, and every co-located client chain — on
// rack256. The figures show what replication buys when correlated failure
// takes real capacity: goodput before vs after the crash, the lost-work
// ledger (tasks, continuations, timers, client chains), and the routing
// layer's reaction (breaker trips, reroutes, retries, hedge wins).
// Crash-free points double as the replication-overhead baseline; the
// one-replica crash-free point runs the same engine as an overload point
// (no breaker, hedge or watchdog).
package bench

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// FailoverCrashNs is the sweep's injection instant: mid-window for the
// default 300-client x 6-request arrival plan (~2.4 virtual ms), so the pre-
// and post-crash halves both carry enough offered load to compare.
const FailoverCrashNs = 1_200_000

// failoverHedgeNs is the hedged point's hedge delay: half the per-attempt
// timeout, so a hedge lands while the primary is still credible.
const failoverHedgeNs = 30_000

// FailoverPoints enumerates the sweep behind the committed FAILOVER_v*.json
// baseline. On amd48 a 16-vproc pool, like the overload sweep's, runs the
// replication ladder crash-free (the overhead axis) and single-vproc kills
// at replication 2 and 3, with one hedged variant. On rack256 32 vprocs
// spread over its two boards, so a board kill takes exactly half of them;
// replication is even (2 and 4) so the boards stay symmetric, and the crash
// axis is the correlated board kill. A board kill needs a replica home on
// the second board: the harness places homes round-robin over the boards
// that host a vproc, and sparse placement fills vproc 0's 8-node board
// first, so the pool must reach 9 vprocs.
func FailoverPoints() []Point {
	pt := func(machine string, threads, replicas int, crash workload.CrashKind) Point {
		p := Point{Machine: machine, Threads: threads, Replicas: replicas, Crash: crash.String()}
		if crash != workload.CrashNone {
			p.CrashNs = FailoverCrashNs
		}
		return p
	}
	hedged := pt("amd48", 16, 2, workload.CrashVProc)
	hedged.HedgeDelayNs = failoverHedgeNs
	return []Point{
		pt("amd48", 16, 1, workload.CrashNone),
		pt("amd48", 16, 2, workload.CrashNone),
		pt("amd48", 16, 2, workload.CrashVProc),
		hedged,
		pt("amd48", 16, 3, workload.CrashNone),
		pt("amd48", 16, 3, workload.CrashVProc),
		pt("rack256", 32, 2, workload.CrashNone),
		pt("rack256", 32, 2, workload.CrashBoard),
		pt("rack256", 32, 4, workload.CrashNone),
		pt("rack256", 32, 4, workload.CrashBoard),
	}
}

// RenderFailover formats the sweep as the text table gcbench prints: SLO
// attainment before and after the crash, the serving-layer post-crash
// goodput (survivor-client requests only), and the full failure ledger.
func RenderFailover(pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	if len(pts) > 0 {
		fmt.Fprintf(&b, "Failover sweep (%d offered requests per point; pre/post split at each point's crash instant, post-serving excludes requests whose client chain died)\n",
			pts[0].Offered)
	}
	fmt.Fprintf(&b, "%-*s %6s %6s %9s %6s %6s %7s %8s %7s %6s %8s %10s %10s\n",
		w, "point", "SLO%", "pre%", "postserv%", "lost", "crash", "ltasks", "rerouted", "retries", "trips", "hedgewin", "p50", "p99")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s %5.0f%% %5.0f%% %8.0f%% %6d %6d %7d %8d %7d %6d %8d %10s %10s\n",
			w, p.Key(), share(p.GoodSLO, p.Offered)*100,
			share(p.GoodPre, p.OfferedPre)*100,
			p.servingGoodputPost()*100,
			p.LostClient, p.Crashes, p.LostTasks, p.Rerouted, p.Retries, p.BreakerTrips, p.HedgeWins,
			us(p.P50Ns), us(p.P99Ns))
	}
	return b.String()
}
