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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// MempressureSweep configures which points MeasureMempressure runs. The
// zero value is invalid; start from DefaultMempressureSweep.
type MempressureSweep struct {
	// Load is the fixed offered load every point runs at.
	Load OverloadLoad
	// Budgets is the global-chunk-budget ladder (0 = unbounded).
	Budgets []int
	// Admissions are the policies compared at every budget.
	Admissions []workload.AdmissionPolicy
	// SqueezeSeed seeds the transient-squeeze variant, measured once per
	// machine × policy on an otherwise unbounded heap in addition to the
	// budget ladder. Zero disables the squeeze points.
	SqueezeSeed uint64
}

// MempressureSqueezeSeed seeds the default sweep's squeeze points.
const MempressureSqueezeSeed = 0x5C0EE2E1

// MempressureThreads is the sweep's fixed pool size (it reuses the
// overload harness's pool). Exported so the CLI can reject nonzero
// budgets below it up front: Config validation requires a bounded heap
// to give every vproc at least one chunk.
const MempressureThreads = overloadThreads

// defaultMempressureBudgets is the committed baseline's budget ladder,
// bracketing the latency heap shape's 24-chunk global-GC trigger: at 32
// chunks the normal trigger still runs the heap, at 24 the budget and the
// trigger coincide, and at 16 the trigger can never fire — the emergency
// ladder becomes the only collector and the admission policies separate.
var defaultMempressureBudgets = []int{0, 32, 24, 16}

// DefaultMempressureSweep is the fixed configuration of the committed
// MEMPRESSURE_v*.json baseline: the 4x overload rung, budget-blind vs
// memory-aware admission down the budget ladder, plus a seeded transient
// squeeze per machine × policy.
func DefaultMempressureSweep() MempressureSweep {
	return MempressureSweep{
		Load:        OverloadLoad{Name: "4x", MeanGapNs: 40_000},
		Budgets:     defaultMempressureBudgets,
		Admissions:  []workload.AdmissionPolicy{workload.AdmitQueue, workload.AdmitMemory},
		SqueezeSeed: MempressureSqueezeSeed,
	}
}

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

// MempressurePoints enumerates the sweep: machine × admission policy ×
// budget ladder, plus the squeeze variant when SqueezeSeed is set.
func MempressurePoints(sw MempressureSweep) []Point {
	var pts []Point
	for _, cell := range overloadCells(sw.Admissions) {
		pt := cell.at(sw.Load)
		for _, b := range sw.Budgets {
			pt.Budget = b
			pts = append(pts, pt)
		}
		if sw.SqueezeSeed != 0 {
			pt.Budget, pt.SqueezeSeed = 0, sw.SqueezeSeed
			pts = append(pts, pt)
		}
	}
	return pts
}

// MeasureMempressure runs the sweep, each point under its budget. Points
// are independent deterministic simulations, so the virtual fields are
// identical for any worker count and any span-worker count par.
func MeasureMempressure(sw MempressureSweep, workers, par int, progress func(string)) ([]Point, error) {
	return measureServe(MempressurePoints(sw), workers, par, progress, func(pt *Point) string {
		return fmt.Sprintf("%s: goodput %.2f/us slo %.0f%% shedmem %d emerg %d allocfail %d (%s wall)",
			pt.Key(), goodputRate(pt.GoodSLO, pt.VirtualMs), share(pt.GoodSLO, pt.Offered)*100,
			pt.ShedMemory, pt.EmergencyGCs, pt.AllocFailed, time.Duration(pt.WallNs))
	})
}

// RenderMempressure formats the sweep as the text table gcbench prints.
// The header echoes the full sweep configuration — load, budget ladder,
// squeeze seed, admission policies, watermarks — so the figure is
// reproducible from its printout alone.
func RenderMempressure(sw MempressureSweep, pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	if len(pts) > 0 {
		budgets := make([]string, len(sw.Budgets))
		for i, bd := range sw.Budgets {
			budgets[i] = fmt.Sprintf("%d", bd)
		}
		adms := make([]string, len(sw.Admissions))
		for i, a := range sw.Admissions {
			adms[i] = a.String()
		}
		fmt.Fprintf(&b, "Memory-pressure sweep (%d clients x %d requests per point; %s load, gap %d ns; budgets {%s} chunks; admission {%s}, watermarks %d/%d%%; squeeze seed %#x; p=%d)\n",
			pts[0].Clients, pts[0].Requests, sw.Load.Name, sw.Load.MeanGapNs,
			strings.Join(budgets, ","), strings.Join(adms, ","),
			workload.ServeMemLowPct, workload.ServeMemHighPct, sw.SqueezeSeed, overloadThreads)
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
