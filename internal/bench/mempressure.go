// Memory-pressure sweep: the overload harness run against bounded heaps —
// the graceful-degradation figure for heap exhaustion. Every point fixes
// the offered load at the overload ladder's 4x rung (deep saturation, so
// the heap is the binding resource, not the arrival rate) and varies the
// global chunk budget down a ladder per machine × admission policy: with
// the budget-blind policy (queue) allocation failure surfaces only after
// the emergency collection ladder has thrashed through forced
// stop-the-world collections, while the memory-aware policy (memory)
// sheds at admission above the occupancy watermark and keeps the pool
// serving the requests it accepts. A squeeze-fault variant injects a
// seeded transient budget squeeze into an unbounded run, showing the same
// machinery absorbing a mid-run memory shock. Every offered request still
// resolves exactly once; the per-point accounting proves it.
package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// mempressureSqueezeSeed seeds the sweep's squeeze points.
const mempressureSqueezeSeed = 0x5C0EE2E1

// squeezeMinThreads is the smallest vproc count a squeeze plan exists for:
// below it the clamp's range [nv/2, 3nv/4) is empty.
const squeezeMinThreads = 4

// MempressureFaultPlan builds the squeeze variant's fault plan: a seeded
// transient budget squeeze — clamp the heap to [nv/2, 3nv/4) chunks
// during the arrival ramp, release it a few hundred microseconds later.
// A pure function of (seed, nv), so gctrace can reproduce a squeeze point
// from the recorded squeeze_seed alone. Below squeezeMinThreads vprocs there
// is no such plan; the error speaks in gctrace's flags, the command whose
// -p can go that low.
func MempressureFaultPlan(seed uint64, nv int) (*core.FaultPlan, error) {
	if nv < squeezeMinThreads {
		return nil, fmt.Errorf("-fault-seed %#x needs -p >= %d (the squeeze clamps the budget to a range of p/4 chunks), got -p %d",
			seed, squeezeMinThreads, nv)
	}
	rng := core.NewRand(seed)
	at := 60_000 + int64(rng.Next()%60_000)
	budget := nv/2 + int(rng.Next()%uint64(nv/4))
	release := at + 80_000 + int64(rng.Next()%40_000)
	return (&core.FaultPlan{}).SqueezeAt(0, at, budget).SqueezeAt(0, release, 0), nil
}

// MempressurePoints enumerates the sweep behind the committed
// MEMPRESSURE_v*.json baseline: machine × admission policy (budget-blind
// queue, memory-aware memory) × budget ladder, at the overload ladder's top
// (4x) rung, plus a seeded transient squeeze on an unbounded heap per
// machine × policy. The ladder brackets the latency heap shape's 24-chunk
// global-GC trigger: at 32 chunks the normal trigger still runs the heap, at
// 24 the budget and the trigger coincide, and at 16 the trigger can never
// fire — the emergency ladder becomes the only collector and the admission
// policies separate.
func MempressurePoints() []Point {
	var pts []Point
	for _, cell := range overloadCells(workload.AdmitQueue, workload.AdmitMemory) {
		pt := cell.at(overloadLoads[len(overloadLoads)-1])
		for _, b := range []int{0, 32, 24, 16} {
			pt.Budget = b
			pts = append(pts, pt)
		}
		pt.Budget, pt.SqueezeSeed = 0, mempressureSqueezeSeed
		pts = append(pts, pt)
	}
	return pts
}

// RenderMempressure formats the sweep as the text table gcbench prints.
// The header echoes the sweep's configuration — load, budget ladder,
// admission policies, watermarks, squeeze seed — so the figure is
// reproducible from its printout alone.
func RenderMempressure(pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	if len(pts) > 0 {
		var squeeze uint64
		for _, p := range pts {
			squeeze = max(squeeze, p.SqueezeSeed)
		}
		fmt.Fprintf(&b, "Memory-pressure sweep (%d clients x %d requests per point; %s load, gap %d ns; budgets {%s} chunks; admission {%s}, watermarks %d/%d%%; squeeze seed %#x; p=%d)\n",
			pts[0].Clients, pts[0].Requests, pts[0].Load, pts[0].MeanGapNs,
			distinct(pts, func(p Point) string { return strconv.Itoa(p.Budget) }),
			distinct(pts, func(p Point) string { return p.Admission }),
			workload.ServeMemLowPct, workload.ServeMemHighPct, squeeze, pts[0].Threads)
	}
	fmt.Fprintf(&b, "%-*s %10s %6s %9s %8s %8s %8s %8s %7s %9s %9s %10s\n",
		w, "point", "goodput/us", "SLO%", "completed", "expired", "shed", "deadline", "shedmem", "emerg", "allocfail", "overdraft", "p99")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s %10.2f %5.0f%% %9d %8d %8d %8d %8d %7d %9d %9d %10s\n",
			w, p.Key(), goodputRate(p.GoodSLO, p.VirtualMs), share(p.GoodSLO, p.Offered)*100,
			p.Completed, p.Expired, p.ShedAdmission+p.ShedFault, p.FailedDeadline, p.ShedMemory,
			p.EmergencyGCs, p.AllocFailed, p.Overdrafts, us(p.P99Ns))
	}
	return b.String()
}

// distinct joins field's values over pts, each once, in order of first
// appearance.
func distinct(pts []Point, field func(Point) string) string {
	var vs []string
	for _, p := range pts {
		if v := field(p); !slices.Contains(vs, v) {
			vs = append(vs, v)
		}
	}
	return strings.Join(vs, ",")
}
