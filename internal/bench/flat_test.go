package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

// flat48 is amd48's shape with no NUMA distance: every path at amd48's local
// latency and bandwidth.
func flat48(t *testing.T) *numa.Topology {
	a := numa.AMD48()
	topo, err := numa.NewCustom(numa.Topology{
		Name: "flat48", GHz: a.GHz,
		Packages: a.Packages, NodesPerPackage: a.NodesPerPackage, CoresPerNode: a.CoresPerNode,
		LocalBW: 21.3, SamePkgBW: 21.3, RemoteBW: 21.3,
		LocalLat: 65, SamePkgLat: 65, RemoteLat: 65,
		L3Bytes: a.L3Bytes, CacheBW: a.CacheBW, CacheLat: a.CacheLat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestKnownFailureFlatMachinePolicies holds two metamorphic relations of the
// placement figures (ROADMAP item 2(a)) on a machine with no NUMA distance,
// where a placement policy has nothing to change but contention: at p=48 and
// scale 1, every benchmark must move the same L3 bytes within 2 % under all
// three policies, and dmm and raytracer, which share no contended data, must
// also run in the same virtual time. Both relations fail today, because an
// access is charged at cache cost only when its page's home is the
// accessor's node, so a local heap that interleaved or single-node placement
// homes elsewhere never hits L3. Each failing relation is an expected
// failure, marked with the values it found; the test fails once a relation
// holds, so the fix drops its mark on purpose.
func TestKnownFailureFlatMachinePolicies(t *testing.T) {
	policies := []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}
	// found is what each relation found when it was marked: virtual ms and
	// L3 MB under local, interleaved and single-node placement. The three
	// benchmarks that contend on shared data have no time relation ("").
	found := map[string][2]string{
		"dmm":        {"0.131 / 0.137 / 0.137 ms", "1.00 / 0.12 / 0.15 MB"},
		"raytracer":  {"0.137 / 0.168 / 0.175 ms", "5.53 / 0.69 / 1.04 MB"},
		"quicksort":  {"", "21.44 / 3.02 / 6.15 MB"},
		"smvm":       {"", "2.26 / 0.29 / 0.45 MB"},
		"barnes-hut": {"", "12.60 / 1.75 / 11.93 MB"},
	}
	topo := flat48(t)
	for _, name := range []string{"dmm", "raytracer", "quicksort", "smvm", "barnes-hut"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var ns [3]int64
			var cache [3]float64
			for i, pol := range policies {
				cfg := core.DefaultConfig(topo, 48)
				cfg.Policy = pol
				rt := core.MustNewRuntime(cfg)
				ns[i] = spec.Run(rt, 1).ElapsedNs
				cache[i] = float64(rt.Machine.Stats().CacheBytes) / 1e6
			}
			lo, hi := min(cache[0], cache[1], cache[2]), max(cache[0], cache[1], cache[2])
			relations := []struct {
				name  string
				holds bool
				got   string
			}{
				{"equal virtual time", ns[0] == ns[1] && ns[1] == ns[2], fmt.Sprintf("%.3f / %.3f / %.3f ms", float64(ns[0])/1e6, float64(ns[1])/1e6, float64(ns[2])/1e6)},
				{"L3 bytes within 2 %", hi <= lo*1.02, fmt.Sprintf("%.2f / %.2f / %.2f MB", cache[0], cache[1], cache[2])},
			}
			for i, r := range relations {
				if found[name][i] == "" {
					continue
				}
				if r.holds {
					t.Errorf("ROADMAP item 2 is fixed for %s, %s (%s): drop the known-failure mark", name, r.name, r.got)
					continue
				}
				t.Logf("known failure: %s, %s: %s (marked %s)", name, r.name, r.got, found[name][i])
			}
		})
	}
}
