// Scale sweep: the rack-scale companion to the paper's speedup figures.
// Each point runs one compute benchmark on a machine preset at its full
// core count under one page-placement policy, and records the virtual
// makespan together with the machine's traffic split across the NUMA
// hierarchy — local, same-package, remote, and (on boarded machines) the
// inter-board far tier. The paper's two machines anchor the sweep; the
// rack presets extend the placement story to hundreds of cores, where the
// far tier makes the local-allocation advantage even larger than Figures
// 5-7 show. Results are deterministic for any -j worker count, and the
// committed SCALE_v1.json baseline gates them in CI exactly like the
// throughput/latency/overload baselines.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/numa"
)

// ScalePoints enumerates the sweep behind the committed SCALE_v*.json
// baseline: the paper's two machines plus the 256-core two-board rack
// preset, each at its full core count, under all three placement policies,
// on the two benchmarks whose traffic is most placement-sensitive in Figures
// 5-7, at the throughput suite's workload scale.
func ScalePoints() []Point {
	var pts []Point
	for _, topo := range []*numa.Topology{numa.AMD48(), numa.Intel32(), numa.Rack256()} {
		for _, pol := range policies {
			for _, b := range []string{"barnes-hut", "smvm"} {
				pts = append(pts, Point{
					Machine:   topo.Name,
					Policy:    pol.String(),
					Benchmark: b,
					Threads:   topo.NumCores(),
					Scale:     BaselineScale,
				})
			}
		}
	}
	return pts
}

// dramBytes is the point's DRAM (non-cache) traffic.
func dramBytes(p Point) uint64 {
	return p.LocalBytes + p.SamePkgBytes + p.RemoteBytes + p.FarBytes
}

// RenderScale formats the sweep as the text table gcbench prints: virtual
// makespan plus the traffic split across the hierarchy, the figure that
// shows placement policy mattering more as the machine grows. xpkg% is the
// share of DRAM traffic leaving the package (remote plus far) — the
// placement-quality axis.
func RenderScale(pts []Point) string {
	var b strings.Builder
	w := keyWidth(pts)
	b.WriteString("Rack-scale sweep: makespan and NUMA traffic split at full core count\n")
	fmt.Fprintf(&b, "%-*s %12s %9s %9s %9s %9s %7s %6s\n",
		w, "point", "virtual", "local", "samepkg", "remote", "far", "xpkg%", "GCs")
	mb := func(v uint64) string { return fmt.Sprintf("%.1fMB", float64(v)/1e6) }
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s %9.3fms %9s %9s %9s %9s %6.0f%% %6d\n",
			w, p.Key(), p.VirtualMs, mb(p.LocalBytes), mb(p.SamePkgBytes),
			mb(p.RemoteBytes), mb(p.FarBytes), share(p.RemoteBytes+p.FarBytes, dramBytes(p))*100, p.GlobalGCs)
	}
	return b.String()
}
