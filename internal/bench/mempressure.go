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

// MempressurePoint is one sweep measurement. Every field except WallNs is
// a virtual (simulated) result and must stay bit-identical across engine
// changes and any -j worker count; like the overload checksum, the
// contract is rerun equality at this exact configuration.
type MempressurePoint struct {
	overloadIdentity
	// Budget is the global heap budget in chunks (0 = unbounded).
	Budget int `json:"budget_chunks"`
	// SqueezeSeed, when set, seeds the transient budget-squeeze fault
	// plan injected into this (otherwise unbounded) point.
	SqueezeSeed uint64 `json:"squeeze_seed,omitempty"`
	overloadOutcome

	ShedMemory   int   `json:"shed_memory"`
	EmergencyGCs int64 `json:"emergency_gcs"`
	AllocFailed  int64 `json:"alloc_failed"`
	Overdrafts   int   `json:"overdrafts"`
	// SurvivedWords is the post-GC survival signal at the end of the run
	// (active chunkage right after the last global collection).
	SurvivedWords int `json:"survived_words"`
}

// Key identifies the point's configuration.
func (p MempressurePoint) Key() string {
	k := fmt.Sprintf("%s %s p=%d %s-load b=%d", p.Machine, p.Admission, p.Threads, p.Load, p.Budget)
	if p.SqueezeSeed != 0 {
		k += "+squeeze"
	}
	return k
}

// VirtualEq reports whether two points' virtual (deterministic) fields are
// bit-identical; wall time is host noise and excluded.
func (p MempressurePoint) VirtualEq(q MempressurePoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

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
// MEMPRESSURE_v1.json baseline: the 4x overload rung, budget-blind vs
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

// MempressureSqueezeMinThreads is the smallest vproc count a squeeze plan
// exists for: below it the clamp's range [nv/2, 3nv/4) is empty.
const MempressureSqueezeMinThreads = 4

// MempressureFaultPlan builds the squeeze variant's fault plan: a seeded
// transient budget squeeze — clamp the heap to [nv/2, 3nv/4) chunks
// during the arrival ramp, release it a few hundred microseconds later.
// A pure function of (seed, nv), so gctrace can reproduce a squeeze point
// from the recorded squeeze_seed alone. nv must be at least
// MempressureSqueezeMinThreads; callers taking nv from outside check first.
func MempressureFaultPlan(seed uint64, nv int) *core.FaultPlan {
	if nv < MempressureSqueezeMinThreads {
		panic(fmt.Sprintf("bench: squeeze plan for %d vprocs (need >= %d)", nv, MempressureSqueezeMinThreads))
	}
	rng := core.NewRand(seed)
	at := 60_000 + int64(rng.Next()%60_000)
	budget := nv/2 + int(rng.Next()%uint64(nv/4))
	release := at + 80_000 + int64(rng.Next()%40_000)
	return (&core.FaultPlan{}).SqueezeAt(0, at, budget).SqueezeAt(0, release, 0)
}

// MempressurePoints enumerates the sweep: machine × admission policy ×
// budget ladder, plus the squeeze variant when SqueezeSeed is set.
func MempressurePoints(sw MempressureSweep) []MempressurePoint {
	var pts []MempressurePoint
	for _, cell := range overloadCells(sw.Admissions) {
		for _, b := range sw.Budgets {
			pts = append(pts, MempressurePoint{overloadIdentity: cell.at(sw.Load), Budget: b})
		}
		if sw.SqueezeSeed != 0 {
			pts = append(pts, MempressurePoint{overloadIdentity: cell.at(sw.Load), SqueezeSeed: sw.SqueezeSeed})
		}
	}
	return pts
}

// MeasureMempressure runs the sweep through Run, each point through the
// overload sweep's runner (runOverloadPoint) under the point's budget. Points
// are independent deterministic simulations, so the virtual fields are
// identical for any worker count and any span-worker count par.
func MeasureMempressure(sw MempressureSweep, workers, par int, progress func(string)) ([]MempressurePoint, error) {
	pts := MempressurePoints(sw)
	return Run(pts, workers, progress, func(pt *MempressurePoint) (string, error) {
		var plan *core.FaultPlan
		if pt.SqueezeSeed != 0 {
			plan = MempressureFaultPlan(pt.SqueezeSeed, pt.Threads)
		}
		rt, res, err := runOverloadPoint(pt.overloadIdentity, &pt.overloadOutcome, par, pt.Budget, plan)
		if err != nil {
			return "", err
		}
		pt.ShedMemory = res.ShedMemory
		mp := rt.MemPressure()
		pt.EmergencyGCs = mp.EmergencyGCs
		pt.AllocFailed = mp.AllocFailed
		pt.Overdrafts = mp.Overdrafts
		pt.SurvivedWords = mp.SurvivedWords
		return fmt.Sprintf("%s: goodput %.2f/us slo %.0f%% shedmem %d emerg %d allocfail %d (%s wall)",
			pt.Key(), goodputRate(pt.GoodSLO, pt.VirtualMs), share(pt.GoodSLO, pt.Offered)*100,
			pt.ShedMemory, pt.EmergencyGCs, pt.AllocFailed, time.Duration(pt.WallNs)), nil
	})
}

// RenderMempressure formats the sweep as the text table gcbench prints.
// The header echoes the full sweep configuration — load, budget ladder,
// squeeze seed, admission policies, watermarks — so the figure is
// reproducible from its printout alone.
func RenderMempressure(sw MempressureSweep, pts []MempressurePoint) string {
	var b strings.Builder
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
			workload.OverloadMemLowPct, workload.OverloadMemHighPct, sw.SqueezeSeed, overloadThreads)
	}
	fmt.Fprintf(&b, "%-40s %10s %6s %9s %8s %8s %8s %7s %9s %9s %10s\n",
		"point", "goodput/us", "SLO%", "completed", "expired", "shed", "shedmem", "emerg", "allocfail", "overdraft", "p99")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-40s %10.2f %5.0f%% %9d %8d %8d %8d %7d %9d %9d %10s\n",
			p.Key(), goodputRate(p.GoodSLO, p.VirtualMs), share(p.GoodSLO, p.Offered)*100,
			p.Completed, p.Expired, p.ShedAdmission+p.ShedFault, p.ShedMemory,
			p.EmergencyGCs, p.AllocFailed, p.Overdrafts, us(p.P99Ns))
	}
	return b.String()
}
