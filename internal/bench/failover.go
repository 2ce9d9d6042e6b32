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
	"time"

	"repro/internal/numa"
	"repro/internal/workload"
)

// FailoverSweep configures which points MeasureFailover runs. The zero
// value is invalid; start from DefaultFailoverSweep.
type FailoverSweep struct {
	// Machines are the topology presets to measure; board-kill points are
	// generated only for multi-board machines.
	Machines []string
	// Replicas is the replication ladder measured per machine.
	Replicas []int
	// Crashes are the crash kinds measured per replication level. Kinds a
	// machine cannot host (board kill on a flat machine, any kill of the
	// sole replica's home board) are skipped for that machine.
	Crashes []workload.CrashKind
	// CrashNs is the injection instant of every crashed point.
	CrashNs int64
	// HedgeDelayNs, when positive, adds a hedged variant of each
	// single-vproc-crash point.
	HedgeDelayNs int64
}

// failoverThreads is the per-machine pool size: like the overload sweep the
// flat machines run a fixed 16-vproc pool, while rack256 spreads 32 vprocs
// over its two boards so a board kill takes exactly half of them.
func failoverThreads(machine string) int {
	if machine == "rack256" {
		return 32
	}
	return overloadThreads
}

// FailoverCrashNs is the default sweep's injection instant: mid-window for
// the default 300-client x 6-request arrival plan (~2.4 virtual ms), so the
// pre- and post-crash halves both carry enough offered load to compare.
const FailoverCrashNs = 1_200_000

// FailoverHedgeNs is the default sweep's hedge delay: half the per-attempt
// timeout, so a hedge lands while the primary is still credible.
const FailoverHedgeNs = 30_000

// DefaultFailoverSweep is the fixed configuration of the committed
// FAILOVER_v*.json baseline: the replication ladder crash-free on amd48
// (the overhead axis), single-vproc kills against replication 2 and 3 with
// one hedged variant, and the correlated board kill on rack256 at
// replication 2 and 4.
func DefaultFailoverSweep() FailoverSweep {
	return FailoverSweep{
		Machines:     []string{"amd48", "rack256"},
		Replicas:     []int{1, 2, 3, 4},
		Crashes:      []workload.CrashKind{workload.CrashNone, workload.CrashVProc, workload.CrashBoard},
		CrashNs:      FailoverCrashNs,
		HedgeDelayNs: FailoverHedgeNs,
	}
}

// failoverAdmissible reports whether a (machine, replicas, crash) triple is
// a runnable point: board kills need a multi-board machine and a replica
// home off the coordinator's board, and the default ladder keeps the flat
// machines' points at replication <= 3 and the rack's at 2/4 (the two
// shapes the committed figure compares).
func failoverAdmissible(machine string, topo *numa.Topology, replicas int, crash workload.CrashKind) bool {
	if machine == "rack256" {
		if replicas%2 != 0 {
			return false // odd replication leaves the boards asymmetric
		}
	} else if replicas > 3 {
		return false
	}
	switch crash {
	case workload.CrashBoard:
		// A board kill needs a second board and a replica home on it.
		// The harness places homes round-robin over the boards that host a
		// vproc, so replication >= 2 finds one only when the pool reaches a
		// second board: sparse placement fills vproc 0's board first, and
		// rack256's 8-node board takes 9 vprocs to overflow. The sweep's
		// 32-vproc rack pool (failoverThreads) always does.
		return topo.Boards() >= 2 && replicas >= 2
	case workload.CrashVProc:
		// Flat-machine schedule only: the rack's crash axis is the
		// correlated board kill.
		return topo.Boards() == 1 && replicas >= 2
	}
	return true
}

// FailoverPoints enumerates the sweep.
func FailoverPoints(sw FailoverSweep) ([]Point, error) {
	var pts []Point
	for _, m := range sw.Machines {
		topo, err := numa.Preset(m)
		if err != nil {
			return nil, err
		}
		for _, r := range sw.Replicas {
			for _, crash := range sw.Crashes {
				if !failoverAdmissible(m, topo, r, crash) {
					continue
				}
				pt := Point{
					Machine:  m,
					Threads:  failoverThreads(m),
					Replicas: r,
					Crash:    crash.String(),
				}
				if crash != workload.CrashNone {
					pt.CrashNs = sw.CrashNs
				}
				pts = append(pts, pt)
				if crash == workload.CrashVProc && sw.HedgeDelayNs > 0 && r == 2 {
					hedged := pt
					hedged.HedgeDelayNs = sw.HedgeDelayNs
					pts = append(pts, hedged)
				}
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("bench: failover sweep selects no runnable points (crash kinds %v on machines %v)", sw.Crashes, sw.Machines)
	}
	return pts, nil
}

// MeasureFailover runs the sweep. Points are independent deterministic
// simulations, so the virtual fields are identical for any worker count and
// any span-worker count par.
func MeasureFailover(sw FailoverSweep, workers, par int, progress func(string)) ([]Point, error) {
	pts, err := FailoverPoints(sw)
	if err != nil {
		return nil, err
	}
	return measureServe(pts, workers, par, progress, func(pt *Point) string {
		return fmt.Sprintf("%s: slo %.0f%% pre %.0f%% post-serving %.0f%% lost %d rerouted %d trips %d crashes %d (%s wall)",
			pt.Key(), share(pt.GoodSLO, pt.Offered)*100, share(pt.GoodPre, pt.OfferedPre)*100,
			pt.servingGoodputPost()*100, pt.LostClient, pt.Rerouted, pt.BreakerTrips, pt.Crashes, time.Duration(pt.WallNs))
	})
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
