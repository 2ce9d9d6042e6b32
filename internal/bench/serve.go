package bench

import "fmt"

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
