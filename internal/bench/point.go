package bench

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// Point is one configuration point of any sweep and what it measured; every
// baseline kind is a list of them. A kind sets only the identity fields its
// axes use and records only the outcome fields its harness measures, and a
// zero field is omitted from the files. Every field except WallNs is a
// virtual (simulated) result and must stay bit-identical across engine
// changes and across any -j/-par worker count; the compare gates check them
// exactly. The serving checksum is schedule-dependent (shedding and routing
// depend on queue depth at each instant), so its contract is rerun equality
// at the point's exact configuration.
type Point struct {
	// Identity, in Key order.
	Figure    int     `json:"figure,omitempty"`
	Benchmark string  `json:"benchmark,omitempty"`
	Machine   string  `json:"machine,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	Admission string  `json:"admission,omitempty"`
	Threads   int     `json:"threads"`
	Scale     float64 `json:"scale,omitempty"`
	Load      string  `json:"load,omitempty"`
	MeanGapNs int64   `json:"mean_gap_ns,omitempty"`
	Clients   int     `json:"clients,omitempty"`
	Requests  int     `json:"requests,omitempty"`
	// GC selects the global collector: "" the stop-the-world collector,
	// "concurrent" the mostly-concurrent one.
	GC string `json:"gc,omitempty"`
	// FaultSeed seeds the overload sweep's stall and burst plan
	// (OverloadFaultPlan).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Budget is the global heap budget in chunks (0 = unbounded).
	Budget int `json:"budget_chunks,omitempty"`
	// SqueezeSeed seeds the transient budget squeeze
	// (MempressureFaultPlan).
	SqueezeSeed  uint64 `json:"squeeze_seed,omitempty"`
	Replicas     int    `json:"replicas,omitempty"`
	Crash        string `json:"crash,omitempty"`
	CrashNs      int64  `json:"crash_ns,omitempty"`
	HedgeDelayNs int64  `json:"hedge_delay_ns,omitempty"`

	VirtualMs float64 `json:"virtual_ms"`
	Check     uint64  `json:"check,omitempty"`
	WindowNs  int64   `json:"window_ns,omitempty"`

	// The serving ledger (workload.ServeResult): every offered request's
	// resolution, the pre-crash split, routing, and lost work.
	Offered        int   `json:"offered,omitempty"`
	Completed      int   `json:"completed,omitempty"`
	GoodSLO        int   `json:"good_slo,omitempty"`
	Expired        int   `json:"expired,omitempty"`
	ShedAdmission  int   `json:"shed_admission,omitempty"`
	ShedFault      int   `json:"shed_fault,omitempty"`
	ShedMemory     int   `json:"shed_memory,omitempty"`
	FailedDeadline int   `json:"failed_deadline,omitempty"`
	LostClient     int   `json:"lost_client,omitempty"`
	OfferedPre     int   `json:"offered_pre,omitempty"`
	GoodPre        int   `json:"good_pre,omitempty"`
	LostPre        int   `json:"lost_pre,omitempty"`
	Retries        int64 `json:"retries,omitempty"`
	Rerouted       int64 `json:"rerouted,omitempty"`
	Hedged         int64 `json:"hedged,omitempty"`
	HedgeWins      int64 `json:"hedge_wins,omitempty"`
	BreakerTrips   int64 `json:"breaker_trips,omitempty"`
	FastFails      int64 `json:"fast_fails,omitempty"`
	LateReplies    int64 `json:"late_replies,omitempty"`
	Crashes        int   `json:"crashes,omitempty"`
	LostTasks      int64 `json:"lost_tasks,omitempty"`
	LostConts      int64 `json:"lost_conts,omitempty"`
	LostTimers     int64 `json:"lost_timers,omitempty"`

	// Memory pressure (core.MemPressure). SurvivedWords is the active
	// chunkage right after the last global collection.
	EmergencyGCs  int64 `json:"emergency_gcs,omitempty"`
	AllocFailed   int64 `json:"alloc_failed,omitempty"`
	Overdrafts    int   `json:"overdrafts,omitempty"`
	SurvivedWords int   `json:"survived_words,omitempty"`

	// Traffic split by path tier, in bytes (numa.TrafficStats).
	LocalBytes   uint64 `json:"local_bytes,omitempty"`
	SamePkgBytes uint64 `json:"same_pkg_bytes,omitempty"`
	RemoteBytes  uint64 `json:"remote_bytes,omitempty"`
	FarBytes     uint64 `json:"far_bytes,omitempty"`
	CacheBytes   uint64 `json:"cache_bytes,omitempty"`
	Accesses     uint64 `json:"accesses,omitempty"`

	// The completed requests' latency ladder and GC-pause attribution
	// (workload.Latencies): every request, then the p99.9 tail.
	P50Ns         int64 `json:"p50_ns,omitempty"`
	P90Ns         int64 `json:"p90_ns,omitempty"`
	P99Ns         int64 `json:"p99_ns,omitempty"`
	P999Ns        int64 `json:"p999_ns,omitempty"`
	MeanNs        int64 `json:"mean_ns,omitempty"`
	GlobalMeanNs  int64 `json:"global_mean_ns,omitempty"`
	LocalMeanNs   int64 `json:"local_mean_ns,omitempty"`
	TailCount     int   `json:"tail_count,omitempty"`
	TailMeanNs    int64 `json:"tail_mean_ns,omitempty"`
	TailGlobalNs  int64 `json:"tail_global_ns,omitempty"`
	TailLocalNs   int64 `json:"tail_local_ns,omitempty"`
	TailGlobalMax int64 `json:"tail_global_max_ns,omitempty"`

	GlobalGCs int   `json:"global_gcs,omitempty"`
	WallNs    int64 `json:"wall_ns"`

	// Concurrent-collector attribution: zero under the stop-the-world
	// collector.
	MarkAssistWords int64 `json:"mark_assist_words,omitempty"`
	MarkAssistNs    int64 `json:"mark_assist_ns,omitempty"`
	BarrierHits     int64 `json:"barrier_hits,omitempty"`
	BarrierNs       int64 `json:"barrier_ns,omitempty"`
	SnapshotStwNs   int64 `json:"snapshot_stw_ns,omitempty"`
	TermStwNs       int64 `json:"termination_stw_ns,omitempty"`
}

// Key names the point's configuration by its non-zero identity fields in
// declaration order, so one configuration has one name in every kind.
func (p Point) Key() string {
	f := keyField(nil, p.Figure, "figure %d")
	f = keyField(f, p.Benchmark, "%s")
	f = keyField(f, p.Machine, "%s")
	f = keyField(f, p.Policy, "%s")
	f = keyField(f, p.Admission, "%s")
	f = keyField(f, p.Threads, "p=%d")
	f = keyField(f, p.Scale, "scale=%g")
	f = keyField(f, p.Load, "%s-load")
	f = keyField(f, p.MeanGapNs, "gap=%dns")
	f = keyField(f, p.Clients, "clients=%d")
	f = keyField(f, p.Requests, "requests=%d")
	f = keyField(f, p.GC, "gc=%s")
	f = keyField(f, p.FaultSeed, "faults=%#x")
	f = keyField(f, p.Budget, "b=%d")
	f = keyField(f, p.SqueezeSeed, "squeeze=%#x")
	f = keyField(f, p.Replicas, "r=%d")
	f = keyField(f, p.Crash, "crash=%s")
	f = keyField(f, p.CrashNs, "at=%dns")
	f = keyField(f, p.HedgeDelayNs, "hedge=%dns")
	return strings.Join(f, " ")
}

// keyField appends v in format unless it is zero.
func keyField[T comparable](f []string, v T, format string) []string {
	var zero T
	if v == zero {
		return f
	}
	return append(f, fmt.Sprintf(format, v))
}

// VirtualEq reports whether two points' virtual (deterministic) fields are
// bit-identical; wall time is host noise and excluded.
func (p Point) VirtualEq(q Point) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// placement is the point's machine preset (amd48 when unset) and
// page-placement policy (local when unset).
func (p Point) placement() (*numa.Topology, mempage.Policy, error) {
	topo, err := numa.Preset(cmp.Or(p.Machine, "amd48"))
	if err != nil {
		return nil, 0, err
	}
	pol, err := mempage.ParsePolicy(cmp.Or(p.Policy, "local"))
	return topo, pol, err
}

// Config is the point's runtime configuration for the latency and serving
// harnesses: LatencyConfig on its machine preset under its policy (local
// when unset), with its collector and heap budget.
func (p Point) Config() (core.Config, error) {
	topo, pol, err := p.placement()
	if err != nil {
		return core.Config{}, err
	}
	if p.GC != "" && p.GC != "concurrent" {
		return core.Config{}, fmt.Errorf("bench: unknown collector gc=%s (\"\" is stop-the-world, or concurrent)", p.GC)
	}
	cfg := LatencyConfig(topo, pol, p.Threads)
	cfg.ConcurrentGlobal = p.GC == "concurrent"
	cfg.GlobalBudgetChunks = p.Budget
	return cfg, nil
}

// runtime builds the point's runtime (Config) with par span workers.
func (p Point) runtime(par int) (*core.Runtime, error) {
	cfg, err := p.Config()
	if err != nil {
		return nil, err
	}
	cfg.SpanWorkers = par
	return core.NewRuntime(cfg)
}

// runBenchmark runs the point's benchmark at its thread count on a fresh
// default runtime for its placement, at its workload scale (BaselineScale
// when unset), with par span workers. The wall time covers the run alone,
// not the runtime's construction.
func (p Point) runBenchmark(par int) (*core.Runtime, workload.Result, time.Duration, error) {
	topo, pol, err := p.placement()
	if err != nil {
		return nil, workload.Result{}, 0, err
	}
	spec, err := workload.ByName(p.Benchmark)
	if err != nil {
		return nil, workload.Result{}, 0, err
	}
	cfg := core.DefaultConfig(topo, p.Threads)
	cfg.Policy = pol
	cfg.SpanWorkers = par
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, workload.Result{}, 0, err
	}
	start := time.Now()
	res := spec.Run(rt, cmp.Or(p.Scale, BaselineScale))
	return rt, res, time.Since(start), nil
}

// LatencyOptions is the point's open-loop harness options: its mean gap,
// and the sweep's client population unless the point sets its own.
func (p Point) LatencyOptions() workload.LatencyOptions {
	return workload.LatencyOptions{
		Clients:   cmp.Or(p.Clients, latencyShape.clients),
		Requests:  cmp.Or(p.Requests, latencyShape.requests),
		MeanGapNs: p.MeanGapNs,
	}
}

// ServeOptions is the point's serving-harness options, validated for its
// machine and vproc count: the default shape (workload.DefaultServeOptions:
// 300 clients x 6 requests, one depth-16 lane, 300 ns/word service, 250 us
// SLO) with every identity field the point sets, and its fault plan — the
// overload sweep's stalls and bursts for a fault seed, the memory-pressure
// sweep's squeeze for a squeeze seed. The plan is new on every call:
// InstallFaults arms pointers into its event slice, so concurrent runs
// cannot share one.
func (p Point) ServeOptions() (workload.ServeOptions, error) {
	topo, err := numa.Preset(p.Machine)
	if err != nil {
		return workload.ServeOptions{}, err
	}
	opt := workload.DefaultServeOptions(1.0)
	opt.Clients = cmp.Or(p.Clients, opt.Clients)
	opt.Requests = cmp.Or(p.Requests, opt.Requests)
	opt.MeanGapNs = cmp.Or(p.MeanGapNs, opt.MeanGapNs)
	opt.Replicas = cmp.Or(p.Replicas, opt.Replicas)
	opt.CrashNs, opt.HedgeDelayNs = p.CrashNs, p.HedgeDelayNs
	if p.Admission != "" {
		if opt.Admission, err = workload.ParseAdmission(p.Admission); err != nil {
			return workload.ServeOptions{}, err
		}
	}
	if p.Crash != "" {
		if opt.Crash, err = workload.ParseCrashKind(p.Crash); err != nil {
			return workload.ServeOptions{}, err
		}
	}
	switch {
	case p.FaultSeed != 0:
		opt.Faults = OverloadFaultPlan(p.FaultSeed, p.Threads)
	case p.SqueezeSeed != 0:
		if opt.Faults, err = MempressureFaultPlan(p.SqueezeSeed, p.Threads); err != nil {
			return workload.ServeOptions{}, err
		}
	}
	if err := opt.Validate(topo, p.Threads); err != nil {
		return workload.ServeOptions{}, err
	}
	return opt, nil
}

// record fills in what every harness run measures: the makespan and
// checksum, the completed requests' latency ladder and pause attribution,
// the global collections, and the concurrent collector's assist, barrier
// and window accounting.
func (p *Point) record(rt *core.Runtime, res workload.Result, lat workload.Latencies, wall time.Duration) {
	all, tail := lat.All, lat.Tail
	p.WallNs = wall.Nanoseconds()
	p.VirtualMs, p.Check = float64(res.ElapsedNs)/1e6, res.Check
	p.P50Ns, p.P90Ns, p.P99Ns, p.P999Ns = lat.P50, lat.P90, lat.P99, lat.P999
	p.MeanNs, p.GlobalMeanNs, p.LocalMeanNs = all.MeanNs, all.Global.MeanNs, all.Local.MeanNs
	p.TailCount, p.TailMeanNs, p.TailGlobalNs = tail.Count, tail.MeanNs, tail.Global.MeanNs
	p.TailLocalNs, p.TailGlobalMax = tail.Local.MeanNs, tail.Global.MaxNs
	p.GlobalGCs = rt.Stats.GlobalGCs
	p.MarkAssistWords, p.MarkAssistNs = res.Stats.MarkAssistWords, res.Stats.MarkAssistNs
	p.BarrierHits, p.BarrierNs = res.Stats.BarrierHits, res.Stats.BarrierNs
	p.SnapshotStwNs, p.TermStwNs = rt.Stats.SnapshotNs, rt.Stats.TermNs
}

// keyWidth is the widest key of pts, for the tables' point column.
func keyWidth(pts []Point) int {
	w := len("point")
	for _, p := range pts {
		w = max(w, len(p.Key()))
	}
	return w
}
