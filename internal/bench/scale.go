// Scale sweep: the rack-scale companion to the paper's speedup figures.
// Each point runs one compute benchmark on a machine preset at its full
// core count under one page-placement policy, and records the virtual
// makespan together with the machine's traffic split across the NUMA
// hierarchy — local, same-package, remote, and (on boarded machines) the
// inter-board far tier. The paper's two machines anchor the sweep; the
// rack presets extend the placement story to hundreds of cores, where the
// far tier makes the local-allocation advantage even larger than Figures
// 5-7 show. Results are deterministic for any -j worker count and any
// -par span-worker count, and the committed SCALE_v1.json baseline gates
// them in CI exactly like the throughput/latency/overload baselines.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// ScalePoint is one sweep measurement. Every field except WallNs is a
// virtual (simulated) result and must stay bit-identical across engine
// changes, -j worker counts, and -par span-worker counts; the compare gate
// checks them exactly.
type ScalePoint struct {
	Machine   string  `json:"machine"`
	Policy    string  `json:"policy"`
	Benchmark string  `json:"benchmark"`
	Threads   int     `json:"threads"`
	Scale     float64 `json:"scale"`

	VirtualMs float64 `json:"virtual_ms"`
	Check     uint64  `json:"check"`

	// Traffic split by path tier, in bytes (numa.TrafficStats).
	LocalBytes   uint64 `json:"local_bytes"`
	SamePkgBytes uint64 `json:"same_pkg_bytes"`
	RemoteBytes  uint64 `json:"remote_bytes"`
	FarBytes     uint64 `json:"far_bytes"`
	CacheBytes   uint64 `json:"cache_bytes"`
	Accesses     uint64 `json:"accesses"`

	GlobalGCs int   `json:"global_gcs"`
	WallNs    int64 `json:"wall_ns"`
}

// Key identifies the point's configuration.
func (p ScalePoint) Key() string {
	return fmt.Sprintf("%s %s %s p=%d", p.Machine, p.Policy, p.Benchmark, p.Threads)
}

// VirtualEq reports whether two points' virtual (deterministic) fields are
// bit-identical; wall time is host noise and excluded.
func (p ScalePoint) VirtualEq(q ScalePoint) bool {
	p.WallNs, q.WallNs = 0, 0
	return p == q
}

// ScaleSweep configures which points MeasureScale runs. The zero value is
// invalid; start from DefaultScaleSweep.
type ScaleSweep struct {
	// Machines are preset names (numa.Preset); each runs at its full core
	// count under every page-placement policy.
	Machines   []string
	Benchmarks []string
	Scale      float64
}

// DefaultScaleSweep is the fixed configuration of the committed
// SCALE_v1.json baseline: the paper's two machines plus the 256-core
// two-board rack preset, under all three placement policies, on the two
// benchmarks whose traffic is most placement-sensitive in Figures 5-7.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Machines:   []string{"amd48", "intel32", "rack256"},
		Benchmarks: []string{"barnes-hut", "smvm"},
		Scale:      0.25,
	}
}

// scalePolicies is the fixed policy axis of the sweep.
var scalePolicies = []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}

// ScalePoints enumerates the sweep: machine × policy × benchmark, each at
// the machine's full core count. Unknown machine names return an error on
// the calling goroutine, before any simulation starts.
func ScalePoints(sw ScaleSweep) ([]ScalePoint, error) {
	var pts []ScalePoint
	for _, m := range sw.Machines {
		topo, err := numa.Preset(m)
		if err != nil {
			return nil, err
		}
		for _, pol := range scalePolicies {
			for _, b := range sw.Benchmarks {
				if _, err := workload.ByName(b); err != nil {
					return nil, err
				}
				pts = append(pts, ScalePoint{
					Machine:   m,
					Policy:    pol.String(),
					Benchmark: b,
					Threads:   topo.NumCores(),
					Scale:     sw.Scale,
				})
			}
		}
	}
	return pts, nil
}

// MeasureScale runs the sweep through Run. Points are independent
// deterministic simulations, so the virtual fields are identical for any
// worker count and any span-worker count par.
func MeasureScale(sw ScaleSweep, workers, par int, progress func(string)) ([]ScalePoint, error) {
	pts, err := ScalePoints(sw)
	if err != nil {
		return nil, err
	}
	return Run(pts, workers, progress, func(pt *ScalePoint) (string, error) {
		topo, err := numa.Preset(pt.Machine)
		if err != nil {
			return "", err
		}
		pol, err := mempage.ParsePolicy(pt.Policy)
		if err != nil {
			return "", err
		}
		rt, res, wall, err := runOne(topo, pol, pt.Threads, pt.Benchmark, Options{Scale: pt.Scale, Par: par})
		if err != nil {
			return "", err
		}
		pt.WallNs = wall.Nanoseconds()
		pt.VirtualMs = float64(res.ElapsedNs) / 1e6
		pt.Check = res.Check
		st := rt.Machine.Stats()
		pt.LocalBytes = st.BytesByPath[numa.PathLocal]
		pt.SamePkgBytes = st.BytesByPath[numa.PathSamePackage]
		pt.RemoteBytes = st.BytesByPath[numa.PathRemote]
		pt.FarBytes = st.BytesByPath[numa.PathFar]
		pt.CacheBytes = st.CacheBytes
		pt.Accesses = st.Accesses
		pt.GlobalGCs = rt.Stats.GlobalGCs
		return fmt.Sprintf("%s: %.3f ms virtual, far %.0f%% of DRAM traffic (%s wall)",
			pt.Key(), pt.VirtualMs, share(pt.FarBytes, dramBytes(*pt))*100, wall), nil
	})
}

// dramBytes is the point's DRAM (non-cache) traffic.
func dramBytes(p ScalePoint) uint64 {
	return p.LocalBytes + p.SamePkgBytes + p.RemoteBytes + p.FarBytes
}

// RenderScale formats the sweep as the text table gcbench prints: virtual
// makespan plus the traffic split across the hierarchy, the figure that
// shows placement policy mattering more as the machine grows. xpkg% is the
// share of DRAM traffic leaving the package (remote plus far) — the
// placement-quality axis.
func RenderScale(pts []ScalePoint) string {
	var b strings.Builder
	b.WriteString("Rack-scale sweep: makespan and NUMA traffic split at full core count\n")
	fmt.Fprintf(&b, "%-42s %12s %9s %9s %9s %9s %7s %6s\n",
		"point", "virtual", "local", "samepkg", "remote", "far", "xpkg%", "GCs")
	mb := func(v uint64) string { return fmt.Sprintf("%.1fMB", float64(v)/1e6) }
	for _, p := range pts {
		fmt.Fprintf(&b, "%-42s %9.3fms %9s %9s %9s %9s %6.0f%% %6d\n",
			p.Key(), p.VirtualMs, mb(p.LocalBytes), mb(p.SamePkgBytes),
			mb(p.RemoteBytes), mb(p.FarBytes), share(p.RemoteBytes+p.FarBytes, dramBytes(p))*100, p.GlobalGCs)
	}
	return b.String()
}
