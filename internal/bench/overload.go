// Overload sweep: the open-loop harness pushed through and past saturation,
// measured as goodput-vs-offered-load and SLO-attainment figures per
// machine × admission policy. Each point runs workload.RunServe (one
// replica) at one offered load under the latency sweep's GC-pressure heap
// shape; the sweep ladder brackets the pool's capacity (~0.4x, 1x, 2x, 4x of
// saturation), so the figures show what each admission policy does when the load keeps
// coming: the no-control baseline's goodput collapses as queueing delay
// pushes every request past its deadline, while deadline-aware shedding
// keeps the pool busy only with requests that can still succeed and goodput
// plateaus. A faulted variant of the top load re-measures every policy with
// a seeded plan of vproc stalls and allocation bursts injected mid-run.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// offeredLoad is one offered-load level of a traffic sweep (the overload
// ladder, the latency sweep's two levels): the per-client mean
// inter-arrival gap, named for the figure axis.
type offeredLoad struct {
	name      string
	meanGapNs int64
}

// overloadThreads is the sweep's fixed pool size. The saturation knobs
// (service cost, load ladder) are tuned so this pool's capacity sits between
// the 1x and 2x rungs; the machine axis then isolates the NUMA topology's
// contribution at identical capacity, rather than re-deriving a per-machine
// ladder.
const overloadThreads = 16

// overloadFaultSeed seeds the sweep's faulted points.
const overloadFaultSeed = 0xFA115AFE

// overloadLoads bracket the 16-vproc pool's ~1.9 requests/us capacity:
// per-client mean gaps giving ~0.4x, 1x, 2x, and 4x saturation with the
// default 300-client population.
var overloadLoads = []offeredLoad{
	{"0.4x", 400_000},
	{"1x", 160_000},
	{"2x", 80_000},
	{"4x", 40_000},
}

// OverloadFaultPlan builds the sweep's fault plan: a seeded schedule of
// vproc stalls and allocation bursts across the run's busy window. The plan
// is a pure function of (seed, nv) — gctrace can reproduce a faulted
// baseline point from the recorded fault_seed. No channel closes: a close
// discards accepted requests; close faults are exercised by the core and
// workload fault tests instead.
func OverloadFaultPlan(seed uint64, nv int) *core.FaultPlan {
	// Horizon 600 us: the top-load arrival window ends near 360 us and the
	// measured makespans run past 1 ms, so every event lands mid-run.
	return core.RandomFaultPlan(seed, nv, 600_000, 3, 3)
}

// overloadCells enumerates machine × admission policy, the outer axes both
// harness sweeps share, as points with the load still to be set.
func overloadCells(adms ...workload.AdmissionPolicy) []Point {
	var cells []Point
	for _, m := range []string{"amd48", "intel32"} {
		for _, adm := range adms {
			cells = append(cells, Point{Machine: m, Admission: adm.String(), Threads: overloadThreads})
		}
	}
	return cells
}

// at is the cell at one offered load, with the default client population.
func (p Point) at(ld offeredLoad) Point {
	opt := workload.DefaultServeOptions(1.0)
	p.Load, p.MeanGapNs, p.Clients, p.Requests = ld.name, ld.meanGapNs, opt.Clients, opt.Requests
	return p
}

// OverloadPoints enumerates the sweep behind the committed OVERLOAD_v*.json
// baseline: machine × admission policy (none, queue, deadline) × the load
// ladder, plus a faulted run of the top load per machine × policy.
func OverloadPoints() []Point {
	var pts []Point
	for _, cell := range overloadCells(workload.AdmitNone, workload.AdmitQueue, workload.AdmitDeadline) {
		for _, ld := range overloadLoads {
			pts = append(pts, cell.at(ld))
		}
		faulted := cell.at(overloadLoads[len(overloadLoads)-1])
		faulted.FaultSeed = overloadFaultSeed
		pts = append(pts, faulted)
	}
	return pts
}

// RenderOverload formats the sweep as the text table gcbench prints:
// goodput against offered load with the full resolution accounting, the
// figure that shows which policies degrade gracefully.
func RenderOverload(pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	if len(pts) > 0 {
		fmt.Fprintf(&b, "Overload sweep (%d clients x %d requests per point; offered = planned arrivals / window, goodput = SLO-meeting completions / makespan)\n",
			pts[0].Clients, pts[0].Requests)
	}
	fmt.Fprintf(&b, "%-*s %10s %10s %6s %9s %9s %9s %9s %9s %8s %10s %10s\n",
		w, "point", "offered/us", "goodput/us", "SLO%", "completed", "expired", "shed", "deadline", "retries", "faults", "p50", "p99")
	for _, p := range pts {
		faults := "-"
		if p.FaultSeed != 0 {
			faults = fmt.Sprintf("%#x", p.FaultSeed)
		}
		fmt.Fprintf(&b, "%-*s %10.2f %10.2f %5.0f%% %9d %9d %9d %9d %9d %8s %10s %10s\n",
			w, p.Key(), p.offeredRate(), goodputRate(p.GoodSLO, p.VirtualMs), share(p.GoodSLO, p.Offered)*100,
			p.Completed, p.Expired, p.ShedAdmission+p.ShedFault, p.FailedDeadline, p.Retries, faults, us(p.P50Ns), us(p.P99Ns))
	}
	return b.String()
}
