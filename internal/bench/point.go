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
// changes and across any -j worker count; the compare gates check them
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

// serving reports whether the point runs the serving engine: an admission
// policy (the overload and memory-pressure sweeps) or a replication level
// (the failover sweep) names it.
func (p Point) serving() bool { return p.Admission != "" || p.Replicas != 0 }

// Measure runs the point once and records what its harness measured: the one
// way a sweep, a figure or gctrace runs a configuration. It validates the
// point and builds its runtime: core.DefaultConfig for a benchmark point,
// LatencyConfig for a traffic point, on its machine preset (amd48 when
// unset) under its policy (local when unset), with its collector and heap
// budget. It installs trace (nil: none) and runs the point's one harness:
// its benchmark when Benchmark is set, the serving engine
// (workload.RunServe) when Admission or Replicas is, the open-loop latency
// harness otherwise. It returns the runtime and what the harness
// returned; a benchmark run fills only the Result, a latency run also
// Completed and the Latencies. WallNs covers the run, not the runtime's
// construction.
func (p *Point) Measure(trace core.Tracer) (*core.Runtime, workload.ServeResult, error) {
	cfg, run, err := p.harness()
	if err != nil {
		return nil, workload.ServeResult{}, err
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, workload.ServeResult{}, err
	}
	rt.SetTracer(trace)
	start := time.Now()
	res := run(rt)
	p.record(rt, res, time.Since(start))
	return rt, res, nil
}

// harness validates the point and returns its runtime configuration and its
// one harness, ready to run. A scale whose largest object the runtime cannot
// hold is an error here, in the flags both commands spell the point's
// benchmark and scale with, rather than a panic inside the run.
func (p Point) harness() (core.Config, func(*core.Runtime) workload.ServeResult, error) {
	topo, pol, err := p.placement()
	if err != nil {
		return core.Config{}, nil, err
	}
	if p.GC != "" && p.GC != "concurrent" {
		return core.Config{}, nil, fmt.Errorf("bench: unknown collector gc=%s (\"\" is stop-the-world, or concurrent)", p.GC)
	}
	cfg := LatencyConfig(topo, pol, p.Threads)
	var run func(*core.Runtime) workload.ServeResult
	switch {
	case p.Benchmark != "":
		spec, err := workload.ByName(p.Benchmark)
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg = core.DefaultConfig(topo, p.Threads)
		scale := cmp.Or(p.Scale, BaselineScale)
		if err := cfg.CheckObjectWords(spec.MaxObjectWords(scale)); err != nil {
			return core.Config{}, nil, fmt.Errorf("-bench %s at -scale %g: %w", p.Benchmark, scale, err)
		}
		run = func(rt *core.Runtime) workload.ServeResult {
			return workload.ServeResult{Result: spec.Run(rt, scale)}
		}
	case p.serving():
		opt, err := p.ServeOptions()
		if err != nil {
			return core.Config{}, nil, err
		}
		run = func(rt *core.Runtime) workload.ServeResult { return workload.RunServe(rt, opt) }
	default:
		opt := p.LatencyOptions()
		if err := opt.Validate(p.Threads); err != nil {
			return core.Config{}, nil, err
		}
		run = func(rt *core.Runtime) workload.ServeResult {
			lat := workload.RunLatency(rt, opt)
			return workload.ServeResult{Result: lat.Result, Completed: lat.Requests, Latencies: lat.Latencies}
		}
	}
	cfg.Policy = pol
	cfg.ConcurrentGlobal = p.GC == "concurrent"
	cfg.GlobalBudgetChunks = p.Budget
	return cfg, run, nil
}

// Measure is the one sweep runner over points: every point is validated
// before any is measured, then each runs through Point.Measure on Run's pool
// of workers goroutines. Points are independent deterministic simulations,
// so the virtual fields are identical for any worker count. Every baseline
// kind, the figures and custom sweeps (FigurePoints, ServerPoints,
// SweepPoints) and Sweep measure through it.
func Measure(pts []Point, workers int, progress func(string)) ([]Point, error) {
	for i, p := range pts {
		if _, _, err := p.harness(); err != nil {
			return nil, fmt.Errorf("bench: point %d: %w", i, err)
		}
	}
	return Run(pts, workers, progress, func(pt *Point) (string, error) {
		_, _, err := pt.Measure(nil)
		return fmt.Sprintf("%s: %.4f virtual-ms, checksum %#x, %d global GCs (%s wall)",
			pt.Key(), pt.VirtualMs, pt.Check, pt.GlobalGCs, time.Duration(pt.WallNs)), err
	})
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
// machine (amd48 when unset) and vproc count: the default shape
// (workload.DefaultServeOptions: 300 clients x 6 requests, one depth-16
// lane, 300 ns/word service, 250 us SLO) with every identity field the point
// sets, and its fault plan — the overload sweep's stalls and bursts for a
// fault seed, the memory-pressure sweep's squeeze for a squeeze seed. The
// plan is new on every call: InstallFaults arms pointers into its event
// slice, so concurrent runs cannot share one.
func (p Point) ServeOptions() (workload.ServeOptions, error) {
	topo, _, err := p.placement()
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

// record fills in what the point's harness measured. Every run records its
// makespan, checksum and global collections; a benchmark run then the
// machine's traffic split, a traffic run the completed requests' latency
// ladder and pause attribution and the concurrent collector's assist,
// barrier and window accounting, and a serving run its ledger and the
// memory-pressure counters.
func (p *Point) record(rt *core.Runtime, res workload.ServeResult, wall time.Duration) {
	p.WallNs = wall.Nanoseconds()
	p.VirtualMs, p.Check, p.GlobalGCs = float64(res.ElapsedNs)/1e6, res.Check, rt.Stats.GlobalGCs
	if p.Benchmark != "" {
		st := rt.Machine.Stats()
		p.LocalBytes, p.SamePkgBytes = st.BytesByPath[numa.PathLocal], st.BytesByPath[numa.PathSamePackage]
		p.RemoteBytes, p.FarBytes = st.BytesByPath[numa.PathRemote], st.BytesByPath[numa.PathFar]
		p.CacheBytes, p.Accesses = st.CacheBytes, st.Accesses
		return
	}
	all, tail := res.All, res.Tail
	p.P50Ns, p.P90Ns, p.P99Ns, p.P999Ns = res.P50, res.P90, res.P99, res.P999
	p.MeanNs, p.GlobalMeanNs, p.LocalMeanNs = all.MeanNs, all.Global.MeanNs, all.Local.MeanNs
	p.TailCount, p.TailMeanNs, p.TailGlobalNs = tail.Count, tail.MeanNs, tail.Global.MeanNs
	p.TailLocalNs, p.TailGlobalMax = tail.Local.MeanNs, tail.Global.MaxNs
	p.MarkAssistWords, p.MarkAssistNs = res.Stats.MarkAssistWords, res.Stats.MarkAssistNs
	p.BarrierHits, p.BarrierNs = res.Stats.BarrierHits, res.Stats.BarrierNs
	p.SnapshotStwNs, p.TermStwNs = rt.Stats.SnapshotNs, rt.Stats.TermNs
	if !p.serving() {
		return
	}
	mp := rt.MemPressure()
	p.WindowNs, p.Offered, p.Completed, p.GoodSLO = res.WindowNs, res.Offered, res.Completed, res.GoodSLO
	p.Expired, p.ShedAdmission, p.ShedFault, p.ShedMemory = res.Expired, res.ShedAdmission, res.ShedFault, res.ShedMemory
	p.FailedDeadline, p.LostClient = res.FailedDeadline, res.LostClient
	p.OfferedPre, p.GoodPre, p.LostPre = res.OfferedPre, res.GoodPre, res.LostPre
	p.Retries, p.Rerouted, p.Hedged, p.HedgeWins = res.Retries, res.Rerouted, res.Hedged, res.HedgeWins
	p.BreakerTrips, p.FastFails, p.LateReplies = res.BreakerTrips, res.FastFails, res.LateReplies
	p.Crashes, p.LostTasks, p.LostConts, p.LostTimers = res.Crashes, res.Stats.LostTasks, res.Stats.LostConts, res.Stats.LostTimers
	p.EmergencyGCs, p.AllocFailed, p.Overdrafts, p.SurvivedWords = mp.EmergencyGCs, mp.AllocFailed, mp.Overdrafts, mp.SurvivedWords
}

// keyWidth is the widest key of pts, for the tables' point column.
func keyWidth(pts []Point) int {
	w := len("point")
	for _, p := range pts {
		w = max(w, len(p.Key()))
	}
	return w
}
