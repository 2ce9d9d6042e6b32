package bench

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/numa"
)

// Host allocation: the one host-side gate. The simulation's virtual results
// are exact, its host time is not, but the Go allocations a run makes repeat
// to a fraction of a percent. A HostAllocPoint counts them for one run — a
// latency point of the benchmark's serving workloads, or one runtime's
// construction — so a change that adds a Go allocation per inline turn, per
// parked continuation or per request fails a committed file, as virtual drift
// does. MemStats are process-wide: the points are measured one at a time, on
// the calling goroutine, and no sweep worker runs beside them.

// hostAllocRuns is how many times a point is measured; it records the
// median of each count.
const hostAllocRuns = 3

// HostAllocBound is the fraction by which a run may allocate more than the
// recorded point, in objects and in bytes. The spread it covers was measured
// over repeated serial runs of every point (see README, "Host allocation").
const HostAllocBound = 0.02

// HostAllocPoint is one point of the host-allocation gate and what its run
// allocated on the Go heap.
type HostAllocPoint struct {
	// Machine and Threads name the runtime. A point with a mean gap runs
	// the open-loop latency harness at it under LatencyConfig (Point.Measure,
	// construction included); one without only builds the runtime under
	// core.DefaultConfig.
	Machine   string `json:"machine"`
	Threads   int    `json:"threads"`
	MeanGapNs int64  `json:"mean_gap_ns,omitempty"`
	Clients   int    `json:"clients,omitempty"`
	Requests  int    `json:"requests,omitempty"`
	GC        string `json:"gc,omitempty"`

	// Mallocs and AllocBytes are the run's Go heap objects and bytes
	// (runtime.MemStats Mallocs and TotalAlloc), each the median of
	// hostAllocRuns serial runs.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Bound is HostAllocBound when the point was recorded: a run fails the
	// gate when it allocates more than the point by more than this
	// fraction, in either count.
	Bound float64 `json:"bound"`
}

// HostAllocPoints is the gate's fixed point list: the benchmark's three
// serving points (amd48 at p=48, 600 clients x 6 requests: the
// stop-the-world collector at a 400 us gap, the concurrent one at 400 us,
// stop-the-world at 100 us), its rack256 serving point, and runtime
// construction at amd48 x 48 and rack256 x 256.
func HostAllocPoints() []HostAllocPoint {
	serve := func(gapNs int64, gc string) HostAllocPoint {
		return HostAllocPoint{Machine: "amd48", Threads: 48, MeanGapNs: gapNs, Clients: 600, Requests: 6, GC: gc}
	}
	return []HostAllocPoint{
		serve(400_000, ""),
		serve(400_000, "concurrent"),
		serve(100_000, ""),
		{Machine: "rack256", Threads: 256, MeanGapNs: 200_000, Clients: 300, Requests: 3},
		{Machine: "amd48", Threads: 48},
		{Machine: "rack256", Threads: 256},
	}
}

// serving reports whether the point runs the latency harness.
func (p HostAllocPoint) serving() bool { return p.MeanGapNs != 0 }

// point is the latency point a serving point runs.
func (p HostAllocPoint) point() Point {
	return Point{Machine: p.Machine, Threads: p.Threads, MeanGapNs: p.MeanGapNs, Clients: p.Clients, Requests: p.Requests, GC: p.GC}
}

// Key names the point: its latency point's key, or the runtime it builds.
func (p HostAllocPoint) Key() string {
	if p.serving() {
		return p.point().Key()
	}
	return fmt.Sprintf("new runtime %s p=%d", p.Machine, p.Threads)
}

// VirtualEq is the gate's contract, with p the run and want the recorded
// point: p allocated no more objects and no more bytes than want, each
// within want's bound.
func (p HostAllocPoint) VirtualEq(want HostAllocPoint) bool {
	return within(p.Mallocs, want.Mallocs, want.Bound) && within(p.AllocBytes, want.AllocBytes, want.Bound)
}

func within(got, want uint64, bound float64) bool {
	return float64(got) <= float64(want)*(1+bound)
}

// Divergence describes how the run p exceeds the recorded point want.
func (p HostAllocPoint) Divergence(want HostAllocPoint) string {
	return fmt.Sprintf("%d Go objects (%+.2f%%) and %d bytes (%+.2f%%) against the recorded %d and %d, bound %+.0f%%",
		p.Mallocs, growth(p.Mallocs, want.Mallocs), p.AllocBytes, growth(p.AllocBytes, want.AllocBytes),
		want.Mallocs, want.AllocBytes, want.Bound*100)
}

func growth(got, want uint64) float64 {
	return (float64(got)/float64(want) - 1) * 100
}

// MeasureHostAlloc measures every point serially on the calling goroutine:
// hostAllocRuns runs each, every run after a runtime.GC, recording the
// median of each count. The points are validated before any is measured.
func MeasureHostAlloc(pts []HostAllocPoint, progress func(string)) ([]HostAllocPoint, error) {
	for i, p := range pts {
		if p.serving() {
			if _, _, err := p.point().harness(); err != nil {
				return nil, fmt.Errorf("bench: point %d: %w", i, err)
			}
		} else if _, err := numa.Preset(p.Machine); err != nil {
			return nil, fmt.Errorf("bench: point %d: %w", i, err)
		}
	}
	for i := range pts {
		p := &pts[i]
		var mallocs, bytes [hostAllocRuns]uint64
		for r := range hostAllocRuns {
			var err error
			if mallocs[r], bytes[r], err = p.allocs(); err != nil {
				return nil, fmt.Errorf("bench: point %d %w", i, err)
			}
		}
		slices.Sort(mallocs[:])
		slices.Sort(bytes[:])
		p.Mallocs, p.AllocBytes, p.Bound = mallocs[hostAllocRuns/2], bytes[hostAllocRuns/2], HostAllocBound
		if progress != nil {
			progress(fmt.Sprintf("%s: %d Go objects, %d bytes (runs %v, %v)", p.Key(), p.Mallocs, p.AllocBytes, mallocs, bytes))
		}
	}
	return pts, nil
}

// allocs runs the point once and returns the Go heap objects and bytes the
// run allocated.
func (p HostAllocPoint) allocs() (mallocs, bytes uint64, err error) {
	var run func()
	if p.serving() {
		pt := p.point()
		run = func() {
			if _, _, err := pt.Measure(nil); err != nil {
				panic(err)
			}
		}
	} else {
		topo, err := numa.Preset(p.Machine)
		if err != nil {
			return 0, 0, err
		}
		cfg := core.DefaultConfig(topo, p.Threads)
		run = func() { core.MustNewRuntime(cfg) }
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = Guard(run)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}
