// Overload sweep: the open-loop harness pushed through and past saturation,
// measured as goodput-vs-offered-load and SLO-attainment figures per
// machine × admission policy. Each point runs workload.RunOverload at one
// offered load under the latency sweep's GC-pressure heap shape; the sweep
// ladder brackets the pool's capacity (~0.4x, 1x, 2x, 4x of saturation), so
// the figures show what each admission policy does when the load keeps
// coming: the no-control baseline's goodput collapses as queueing delay
// pushes every request past its deadline, while deadline-aware shedding
// keeps the pool busy only with requests that can still succeed and goodput
// plateaus. A faulted variant of the top load re-measures every policy with
// a seeded plan of vproc stalls and allocation bursts injected mid-run.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/workload"
)

// overloadIdentity and overloadOutcome are what one run of the overload
// harness is configured by and what it measures. The overload and
// memory-pressure points embed both and add only their own axis;
// encoding/json flattens embedded structs, so each baseline file keeps its
// flat key set.
type overloadIdentity struct {
	Machine   string `json:"machine"`
	Admission string `json:"admission"`
	Threads   int    `json:"threads"`
	Load      string `json:"load"`
	MeanGapNs int64  `json:"mean_gap_ns"`
	Clients   int    `json:"clients"`
	Requests  int    `json:"requests"`
}

type overloadOutcome struct {
	VirtualMs float64 `json:"virtual_ms"`
	Check     uint64  `json:"check"`
	WindowNs  int64   `json:"window_ns"`

	Offered       int   `json:"offered"`
	Completed     int   `json:"completed"`
	GoodSLO       int   `json:"good_slo"`
	Expired       int   `json:"expired"`
	ShedAdmission int   `json:"shed_admission"`
	ShedFault     int   `json:"shed_fault"`
	Retries       int64 `json:"retries"`

	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`

	GlobalGCs int   `json:"global_gcs"`
	WallNs    int64 `json:"wall_ns"`
}

// OverloadPoint is one sweep measurement. Every field except WallNs is a
// virtual (simulated) result and must stay bit-identical across engine
// changes and across any -j worker count. Unlike the throughput and latency
// checksums the overload checksum is not vproc-count-invariant (shedding
// depends on queue depth at each arrival instant, which is
// schedule-dependent), so the compared contract is rerun equality at this
// exact configuration.
type OverloadPoint struct {
	overloadIdentity
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	overloadOutcome
}

// Key identifies the point's configuration.
func (p OverloadPoint) Key() string {
	k := fmt.Sprintf("%s %s p=%d %s-load", p.Machine, p.Admission, p.Threads, p.Load)
	if p.FaultSeed != 0 {
		k += "+faults"
	}
	return k
}

// VirtualEq reports whether two points' virtual (deterministic) fields are
// bit-identical; wall time is host noise and excluded.
func (p OverloadPoint) VirtualEq(q OverloadPoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// OverloadLoad is one offered-load level: the per-client mean inter-arrival
// gap, named for the figure axis.
type OverloadLoad struct {
	Name      string
	MeanGapNs int64
}

// OverloadSweep configures which points MeasureOverload runs. The zero
// value is invalid; start from DefaultOverloadSweep.
type OverloadSweep struct {
	Loads      []OverloadLoad
	Admissions []workload.AdmissionPolicy
	// FaultSeed seeds the faulted variant of the last load level, measured
	// once per machine × policy in addition to the fault-free ladder.
	// Zero disables the faulted points.
	FaultSeed uint64
}

// overloadThreads is the sweep's fixed pool size. The saturation knobs
// (service cost, load ladder) are tuned so this pool's capacity sits between
// the 1x and 2x rungs; the machine axis then isolates the NUMA topology's
// contribution at identical capacity, rather than re-deriving a per-machine
// ladder.
const overloadThreads = 16

// OverloadFaultSeed seeds the default sweep's faulted points.
const OverloadFaultSeed = 0xFA115AFE

// defaultOverloadLoads bracket the 16-vproc pool's ~1.9 requests/us
// capacity: per-client mean gaps giving ~0.4x, 1x, 2x, and 4x saturation
// with the default 300-client population.
var defaultOverloadLoads = []OverloadLoad{
	{"0.4x", 400_000},
	{"1x", 160_000},
	{"2x", 80_000},
	{"4x", 40_000},
}

// DefaultOverloadSweep is the fixed configuration of the committed
// OVERLOAD_v1.json baseline: every admission policy over the full load
// ladder, plus a faulted run of the top load per policy.
func DefaultOverloadSweep() OverloadSweep {
	return OverloadSweep{
		Loads:      defaultOverloadLoads,
		Admissions: []workload.AdmissionPolicy{workload.AdmitNone, workload.AdmitQueue, workload.AdmitDeadline},
		FaultSeed:  OverloadFaultSeed,
	}
}

// OverloadOptionsFor builds the workload options for one sweep point's
// offered load: the tuned default shape (300 clients x 6 requests, 300
// ns/word service, 250 us SLO, depth-16 lane, 10..80 us backoff) with only
// the gap varying.
func OverloadOptionsFor(meanGapNs int64) workload.OverloadOptions {
	opt := workload.DefaultOverloadOptions(1.0)
	opt.MeanGapNs = meanGapNs
	return opt
}

// OverloadFaultPlan builds the sweep's fault plan: a seeded schedule of
// vproc stalls and allocation bursts across the run's busy window. The plan
// is a pure function of (seed, nv) — gctrace can reproduce a faulted
// baseline point from the recorded fault_seed. No channel closes: a close
// that discards accepted requests would leave their reply waiters parked
// (see workload.OverloadOptions.Faults); close faults are exercised by the
// core and workload fault tests instead.
func OverloadFaultPlan(seed uint64, nv int) *core.FaultPlan {
	// Horizon 600 us: the top-load arrival window ends near 360 us and the
	// measured makespans run past 1 ms, so every event lands mid-run.
	return core.RandomFaultPlan(seed, nv, 600_000, 3, 3)
}

// overloadCells enumerates machine × admission policy, the outer axes both
// harness sweeps share, as point identities with the load still to be set.
func overloadCells(adms []workload.AdmissionPolicy) []overloadIdentity {
	var cells []overloadIdentity
	for _, m := range []string{"amd48", "intel32"} {
		for _, adm := range adms {
			cells = append(cells, overloadIdentity{Machine: m, Admission: adm.String(), Threads: overloadThreads})
		}
	}
	return cells
}

// at is the cell's identity at one offered load.
func (id overloadIdentity) at(ld OverloadLoad) overloadIdentity {
	opt := OverloadOptionsFor(ld.MeanGapNs)
	id.Load, id.MeanGapNs, id.Clients, id.Requests = ld.Name, ld.MeanGapNs, opt.Clients, opt.Requests
	return id
}

// OverloadPoints enumerates the sweep: machine × admission policy × load,
// plus the faulted variant of the last load when FaultSeed is set.
func OverloadPoints(sw OverloadSweep) []OverloadPoint {
	var pts []OverloadPoint
	for _, cell := range overloadCells(sw.Admissions) {
		for _, ld := range sw.Loads {
			pts = append(pts, OverloadPoint{overloadIdentity: cell.at(ld)})
		}
		if sw.FaultSeed != 0 {
			pts = append(pts, OverloadPoint{overloadIdentity: cell.at(sw.Loads[len(sw.Loads)-1]), FaultSeed: sw.FaultSeed})
		}
	}
	return pts
}

// runOverloadPoint is the one point runner of both harness sweeps: the
// GC-pressure runtime for id under a global heap budget (0 = unbounded), one
// workload.RunOverload at id's load and admission policy with an optional
// fault plan, and the shared outcome fields filled in. The runtime and the
// full result come back for the fields only one sweep keeps. plan must be
// fresh per run: InstallFaults arms pointers into its event slice, so
// concurrent points cannot share one.
func runOverloadPoint(id overloadIdentity, out *overloadOutcome, par, budgetChunks int, plan *core.FaultPlan) (*core.Runtime, workload.OverloadResult, error) {
	adm, err := workload.ParseAdmission(id.Admission)
	if err != nil {
		return nil, workload.OverloadResult{}, err
	}
	rt, err := harnessRuntime(id.Machine, mempage.PolicyLocal, id.Threads, par, func(cfg *core.Config) {
		cfg.GlobalBudgetChunks = budgetChunks
	})
	if err != nil {
		return nil, workload.OverloadResult{}, err
	}
	opt := OverloadOptionsFor(id.MeanGapNs)
	opt.Admission = adm
	opt.Faults = plan
	start := time.Now()
	res := workload.RunOverload(rt, opt)
	out.WallNs = time.Since(start).Nanoseconds()
	out.VirtualMs = float64(res.ElapsedNs) / 1e6
	out.Check = res.Check
	out.WindowNs = res.WindowNs
	out.Offered = res.Offered
	out.Completed = res.Completed
	out.GoodSLO = res.GoodSLO
	out.Expired = res.Expired
	out.ShedAdmission = res.ShedAdmission
	out.ShedFault = res.ShedFault
	out.Retries = res.Retries
	out.P50Ns, out.P99Ns = res.P50, res.P99
	out.GlobalGCs = rt.Stats.GlobalGCs
	return rt, res, nil
}

// MeasureOverload runs the sweep through Run. Points are independent
// deterministic simulations, so the virtual fields are identical for any
// worker count and any span-worker count par.
func MeasureOverload(sw OverloadSweep, workers, par int, progress func(string)) ([]OverloadPoint, error) {
	pts := OverloadPoints(sw)
	return Run(pts, workers, progress, func(pt *OverloadPoint) (string, error) {
		var plan *core.FaultPlan
		if pt.FaultSeed != 0 {
			plan = OverloadFaultPlan(pt.FaultSeed, pt.Threads)
		}
		if _, _, err := runOverloadPoint(pt.overloadIdentity, &pt.overloadOutcome, par, 0, plan); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s: offered %.2f/us goodput %.2f/us slo %.0f%% shed %d retries %d (%s wall)",
			pt.Key(), offeredRate(*pt), goodputRate(pt.GoodSLO, pt.VirtualMs), share(pt.GoodSLO, pt.Offered)*100,
			pt.ShedAdmission+pt.ShedFault, pt.Retries, time.Duration(pt.WallNs)), nil
	})
}

// offeredRate is the offered load in requests per virtual microsecond: the
// planned population over the planned arrival window.
func offeredRate(p OverloadPoint) float64 {
	return share(int64(p.Offered), p.WindowNs) * 1e3
}

// goodputRate is the goodput in SLO-meeting requests per virtual
// microsecond of actual makespan — the y axis of the overload and
// memory-pressure figures.
func goodputRate(goodSLO int, virtualMs float64) float64 {
	if virtualMs == 0 {
		return 0
	}
	return float64(goodSLO) / (virtualMs * 1e3)
}

// us formats virtual nanoseconds as the tables' microsecond columns.
func us(ns int64) string { return fmt.Sprintf("%.1fus", float64(ns)/1e3) }

// share is num/den as a fraction, 0 for an empty denominator: SLO attainment
// (GoodSLO of Offered), the failover figure's pre/post-crash percentages, a
// latency band's global-GC share, a tier's part of the DRAM traffic.
func share[T int | int64 | uint64](num, den T) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RenderOverload formats the sweep as the text table gcbench prints:
// goodput against offered load with the full resolution accounting, the
// figure that shows which policies degrade gracefully.
func RenderOverload(pts []OverloadPoint) string {
	var b strings.Builder
	if len(pts) > 0 {
		fmt.Fprintf(&b, "Overload sweep (%d clients x %d requests per point; offered = planned arrivals / window, goodput = SLO-meeting completions / makespan)\n",
			pts[0].Clients, pts[0].Requests)
	}
	fmt.Fprintf(&b, "%-36s %10s %10s %6s %9s %9s %9s %9s %8s %10s %10s\n",
		"point", "offered/us", "goodput/us", "SLO%", "completed", "expired", "shed", "retries", "faults", "p50", "p99")
	for _, p := range pts {
		faults := "-"
		if p.FaultSeed != 0 {
			faults = fmt.Sprintf("%#x", p.FaultSeed)
		}
		fmt.Fprintf(&b, "%-36s %10.2f %10.2f %5.0f%% %9d %9d %9d %9d %8s %10s %10s\n",
			p.Key(), offeredRate(p), goodputRate(p.GoodSLO, p.VirtualMs), share(p.GoodSLO, p.Offered)*100,
			p.Completed, p.Expired, p.ShedAdmission+p.ShedFault, p.Retries, faults, us(p.P50Ns), us(p.P99Ns))
	}
	return b.String()
}
