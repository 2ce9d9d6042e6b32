package bench

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// MeasureServe is the one point runner of the three serving sweeps
// (OverloadPoints, MempressurePoints, FailoverPoints): every point's options
// (Point.ServeOptions) are built and validated before any point is measured,
// then each point runs one workload.RunServe through Run and records what it
// measured. Points are independent deterministic simulations, so the
// virtual fields are identical for any worker count and any span-worker
// count par.
func MeasureServe(pts []Point, workers, par int, progress func(string)) ([]Point, error) {
	for i, p := range pts {
		if _, err := p.ServeOptions(); err != nil {
			return nil, fmt.Errorf("bench: point %d: %w", i, err)
		}
	}
	return Run(pts, workers, progress, func(pt *Point) (string, error) {
		opt, err := pt.ServeOptions()
		if err != nil {
			return "", err
		}
		rt, err := pt.runtime(par)
		if err != nil {
			return "", err
		}
		start := time.Now()
		res := workload.RunServe(rt, opt)
		pt.record(rt, res.Result, res.Latencies, time.Since(start))
		mp := rt.MemPressure()
		pt.WindowNs, pt.Offered, pt.Completed, pt.GoodSLO = res.WindowNs, res.Offered, res.Completed, res.GoodSLO
		pt.Expired, pt.ShedAdmission, pt.ShedFault, pt.ShedMemory = res.Expired, res.ShedAdmission, res.ShedFault, res.ShedMemory
		pt.FailedDeadline, pt.LostClient = res.FailedDeadline, res.LostClient
		pt.OfferedPre, pt.GoodPre, pt.LostPre = res.OfferedPre, res.GoodPre, res.LostPre
		pt.Retries, pt.Rerouted, pt.Hedged, pt.HedgeWins = res.Retries, res.Rerouted, res.Hedged, res.HedgeWins
		pt.BreakerTrips, pt.FastFails, pt.LateReplies = res.BreakerTrips, res.FastFails, res.LateReplies
		pt.Crashes, pt.LostTasks, pt.LostConts, pt.LostTimers = res.Crashes, res.Stats.LostTasks, res.Stats.LostConts, res.Stats.LostTimers
		pt.EmergencyGCs, pt.AllocFailed, pt.Overdrafts, pt.SurvivedWords = mp.EmergencyGCs, mp.AllocFailed, mp.Overdrafts, mp.SurvivedWords
		return fmt.Sprintf("%s: offered %.2f/us goodput %.2f/us slo %.0f%% shed %d emerg %d lost %d rerouted %d (%s wall)",
			pt.Key(), pt.offeredRate(), goodputRate(pt.GoodSLO, pt.VirtualMs), share(pt.GoodSLO, pt.Offered)*100,
			pt.ShedAdmission+pt.ShedFault+pt.ShedMemory, pt.EmergencyGCs, pt.LostClient, pt.Rerouted, time.Duration(pt.WallNs)), nil
	})
}

// servingGoodputPost is the failover figure's post-crash serving goodput:
// SLO-meeting completions over the requests whose clients survived to
// observe an outcome (workload.ServeResult.ServingGoodputPost).
func (p Point) servingGoodputPost() float64 {
	return share(p.GoodSLO-p.GoodPre, (p.Offered-p.OfferedPre)-(p.LostClient-p.LostPre))
}

// offeredRate is the offered load in requests per virtual microsecond: the
// planned population over the planned arrival window.
func (p Point) offeredRate() float64 {
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
