package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// serveOutcome is what one run of the serving harness measures, whichever
// sweep ran it: the overload, memory-pressure and failover points each embed
// it beside their own identity fields (encoding/json flattens embedded
// structs, so every baseline file keeps a flat key set). Every field except
// WallNs is a virtual (simulated) result and must stay bit-identical across
// engine changes and across any -j/-par worker count. The checksum is
// schedule-dependent (shedding and routing depend on queue depth at each
// instant), so the compared contract is rerun equality at the point's exact
// configuration.
type serveOutcome struct {
	VirtualMs float64 `json:"virtual_ms"`
	Check     uint64  `json:"check"`
	WindowNs  int64   `json:"window_ns"`

	Offered        int `json:"offered"`
	Completed      int `json:"completed"`
	GoodSLO        int `json:"good_slo"`
	Expired        int `json:"expired"`
	ShedAdmission  int `json:"shed_admission"`
	ShedFault      int `json:"shed_fault"`
	ShedMemory     int `json:"shed_memory"`
	FailedDeadline int `json:"failed_deadline"`
	LostClient     int `json:"lost_client"`

	OfferedPre int `json:"offered_pre"`
	GoodPre    int `json:"good_pre"`
	LostPre    int `json:"lost_pre"`

	Retries      int64 `json:"retries"`
	Rerouted     int64 `json:"rerouted"`
	Hedged       int64 `json:"hedged"`
	HedgeWins    int64 `json:"hedge_wins"`
	BreakerTrips int64 `json:"breaker_trips"`
	FastFails    int64 `json:"fast_fails"`
	LateReplies  int64 `json:"late_replies"`

	Crashes    int   `json:"crashes"`
	LostTasks  int64 `json:"lost_tasks"`
	LostConts  int64 `json:"lost_conts"`
	LostTimers int64 `json:"lost_timers"`

	EmergencyGCs int64 `json:"emergency_gcs"`
	AllocFailed  int64 `json:"alloc_failed"`
	Overdrafts   int   `json:"overdrafts"`
	// SurvivedWords is the post-GC survival signal at the end of the run
	// (active chunkage right after the last global collection).
	SurvivedWords int `json:"survived_words"`

	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`

	// The completed requests' GC-pause attribution (workload.AttributionBand):
	// every request, then the p99.9 tail.
	MeanNs        int64 `json:"mean_ns"`
	GlobalMeanNs  int64 `json:"global_mean_ns"`
	LocalMeanNs   int64 `json:"local_mean_ns"`
	TailCount     int   `json:"tail_count"`
	TailMeanNs    int64 `json:"tail_mean_ns"`
	TailGlobalNs  int64 `json:"tail_global_ns"`
	TailLocalNs   int64 `json:"tail_local_ns"`
	TailGlobalMax int64 `json:"tail_global_max_ns"`

	GlobalGCs int   `json:"global_gcs"`
	WallNs    int64 `json:"wall_ns"`
}

// servingGoodputPost is the failover figure's post-crash serving goodput:
// SLO-meeting completions over the requests whose clients survived to
// observe an outcome (workload.ServeResult.ServingGoodputPost).
func (o serveOutcome) servingGoodputPost() float64 {
	return share(o.GoodSLO-o.GoodPre, (o.Offered-o.OfferedPre)-(o.LostClient-o.LostPre))
}

// serveRun is one point's run: the GC-pressure runtime for machine at
// threads vprocs, adjusted by tune when set (a heap budget, a placement
// policy, the collector), the harness options, and where the outcome goes.
// opt.Faults must be fresh per run: InstallFaults arms pointers into its
// event slice, so concurrent points cannot share one.
type serveRun struct {
	machine string
	threads int
	tune    func(*core.Config)
	opt     workload.ServeOptions
	out     *serveOutcome
}

// harnessRuntime builds the GC-pressure runtime every latency and serving
// sweep point runs on: LatencyConfig on the named machine preset with local
// placement, par span workers, then tune.
func harnessRuntime(machine string, nv, par int, tune func(*core.Config)) (*core.Runtime, error) {
	topo, err := numa.Preset(machine)
	if err != nil {
		return nil, err
	}
	cfg := LatencyConfig(topo, mempage.PolicyLocal, nv)
	cfg.SpanWorkers = par
	if tune != nil {
		tune(&cfg)
	}
	return core.NewRuntime(cfg)
}

// measureServe is the one point runner of the three serving sweeps: every
// point's options are validated before any is measured, then each point
// runs through Run and fills its outcome. setup describes a point's run;
// line is its progress line once measured.
func measureServe[P any](pts []P, workers, par int, progress func(string), setup func(*P) serveRun, line func(*P) string) ([]P, error) {
	for i := range pts {
		s := setup(&pts[i])
		topo, err := numa.Preset(s.machine)
		if err != nil {
			return nil, err
		}
		if err := s.opt.Validate(topo, s.threads); err != nil {
			return nil, fmt.Errorf("bench: point %d: %w", i, err)
		}
	}
	return Run(pts, workers, progress, func(pt *P) (string, error) {
		s := setup(pt)
		rt, err := harnessRuntime(s.machine, s.threads, par, s.tune)
		if err != nil {
			return "", err
		}
		start := time.Now()
		res := workload.RunServe(rt, s.opt)
		wall := time.Since(start).Nanoseconds()
		mp := rt.MemPressure()
		all, tail := res.All, res.Tail
		*s.out = serveOutcome{
			VirtualMs: float64(res.ElapsedNs) / 1e6, Check: res.Check, WindowNs: res.WindowNs,
			Offered: res.Offered, Completed: res.Completed, GoodSLO: res.GoodSLO,
			Expired: res.Expired, ShedAdmission: res.ShedAdmission, ShedFault: res.ShedFault, ShedMemory: res.ShedMemory,
			FailedDeadline: res.FailedDeadline, LostClient: res.LostClient,
			OfferedPre: res.OfferedPre, GoodPre: res.GoodPre, LostPre: res.LostPre,
			Retries: res.Retries, Rerouted: res.Rerouted, Hedged: res.Hedged, HedgeWins: res.HedgeWins,
			BreakerTrips: res.BreakerTrips, FastFails: res.FastFails, LateReplies: res.LateReplies,
			Crashes: res.Crashes, LostTasks: res.Stats.LostTasks, LostConts: res.Stats.LostConts, LostTimers: res.Stats.LostTimers,
			EmergencyGCs: mp.EmergencyGCs, AllocFailed: mp.AllocFailed, Overdrafts: mp.Overdrafts, SurvivedWords: mp.SurvivedWords,
			P50Ns: res.P50, P90Ns: res.P90, P99Ns: res.P99, P999Ns: res.P999,
			MeanNs: all.MeanNs, GlobalMeanNs: all.Global.MeanNs, LocalMeanNs: all.Local.MeanNs,
			TailCount: tail.Count, TailMeanNs: tail.MeanNs, TailGlobalNs: tail.Global.MeanNs,
			TailLocalNs: tail.Local.MeanNs, TailGlobalMax: tail.Global.MaxNs,
			GlobalGCs: rt.Stats.GlobalGCs, WallNs: wall,
		}
		return line(pt), nil
	})
}

// offeredRate is the offered load in requests per virtual microsecond: the
// planned population over the planned arrival window.
func (o serveOutcome) offeredRate() float64 {
	return share(int64(o.Offered), o.WindowNs) * 1e3
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
