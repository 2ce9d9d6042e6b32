package numa

import "testing"

// pair drives a Machine and a Reference through an identical charge
// sequence, failing the moment any returned cost diverges.
type pair struct {
	t   *testing.T
	m   *Machine
	r   *Reference
	now int64
}

func newPair(t *testing.T, topo func() *Topology) *pair {
	return &pair{t: t, m: NewMachine(topo()), r: NewReference(topo())}
}

func (p *pair) access(core, node, bytes int, kind AccessKind) {
	p.t.Helper()
	f := p.m.AccessCost(p.now, core, node, bytes, kind)
	r := p.r.AccessCost(p.now, core, node, bytes, kind)
	if f != r {
		p.t.Fatalf("AccessCost(now=%d core=%d node=%d bytes=%d kind=%d): fast=%d ref=%d",
			p.now, core, node, bytes, kind, f, r)
	}
	p.now += f
}

func (p *pair) stream(core, node, bytes int, kind AccessKind) {
	p.t.Helper()
	f := p.m.transfer(p.now, core, node, bytes, kind, true)
	r := p.r.StreamCost(p.now, core, node, bytes, kind)
	if f != r {
		p.t.Fatalf("stream transfer(now=%d core=%d node=%d bytes=%d kind=%d): fast=%d ref=%d",
			p.now, core, node, bytes, kind, f, r)
	}
	p.now += f
}

func (p *pair) copyStream(core, sn, dn, bytes int, sk, dk AccessKind) {
	p.t.Helper()
	f := p.m.CopyStreamCost(p.now, core, sn, dn, bytes, sk, dk)
	r := p.r.CopyStreamCost(p.now, core, sn, dn, bytes, sk, dk)
	if f != r {
		p.t.Fatalf("CopyStreamCost(now=%d core=%d src=%d dst=%d bytes=%d): fast=%d ref=%d",
			p.now, core, sn, dn, bytes, f, r)
	}
	p.now += f
}

// cache holds the timestamp-free meterless entry points to the Reference's
// general ones on a (core, node) the caller has established as local.
func (p *pair) cache(core, node, bytes int) {
	p.t.Helper()
	f := p.m.CacheAccessCost(bytes)
	r := p.r.AccessCost(p.now, core, node, bytes, AccessCache)
	if f != r {
		p.t.Fatalf("CacheAccessCost(%d) = %d, want %d", bytes, f, r)
	}
	f = p.m.CacheStreamCost(bytes)
	r = p.r.StreamCost(p.now, core, node, bytes, AccessCache)
	if f != r {
		p.t.Fatalf("CacheStreamCost(%d) = %d, want %d", bytes, f, r)
	}
}

func (p *pair) checkStats(label string) {
	p.t.Helper()
	if f, r := p.m.Stats(), p.r.Stats(); f != r {
		p.t.Fatalf("%s: TrafficStats diverged: fast=%+v ref=%+v", label, f, r)
	}
}

// eqSizes spans 1 B to 1 MiB, straddling the cache-line demand floor, the
// per-epoch budgets and 64 KiB (where charges once switched from a lookup to
// the computation), word-aligned and not.
var eqSizes = []int{1, 7, 8, 63, 64, 65, 100, 512, 4096, 40_000, 65_528, 1 << 16, 65_544, 70_001, 1 << 20}

// eqKinds are both access kinds, cache-eligible and DRAM.
var eqKinds = []AccessKind{AccessCache, AccessMemory}

// eqPhases are the programs of TestFastPathEquivalence, one charge regime
// each.
var eqPhases = []struct {
	name string
	run  func(p *pair)
}{
	{"uncontended", eqUncontended},
	{"contended", eqContended},
	{"copy", eqCopy},
	{"meterless", eqMeterless},
	{"empty", eqEmpty},
	{"out-of-order", eqOutOfOrder},
}

// eqUncontended charges every combination, with multi-epoch idle gaps
// between charges so the meters stay cold (and every roll path, including
// gap >= 63, is exercised).
func eqUncontended(p *pair) {
	topo := p.m.Topo
	gap := int64(1)
	for _, size := range eqSizes {
		for core := 0; core < topo.NumCores(); core++ {
			for node := 0; node < topo.NumNodes(); node++ {
				for _, k := range eqKinds {
					p.access(core, node, size, k)
					p.now += gap * p.m.EpochNs
					gap = gap%70 + 1
					p.stream(core, node, size, k)
				}
			}
		}
	}
}

// eqContended hammers each node from every core inside single epochs so
// both meters run over budget (mult > 1), with epoch boundaries crossed
// while still hot (gap-1 carry).
func eqContended(p *pair) {
	topo := p.m.Topo
	epochStart := (p.now/p.m.EpochNs + 1) * p.m.EpochNs
	for node := 0; node < topo.NumNodes(); node++ {
		p.now = epochStart
		for i, size := range eqSizes {
			for core := 0; core < topo.NumCores(); core++ {
				for _, k := range eqKinds {
					f := p.m.AccessCost(p.now, core, node, size, k)
					r := p.r.AccessCost(p.now, core, node, size, k)
					if f != r {
						p.t.Fatalf("contended AccessCost(now=%d core=%d node=%d bytes=%d kind=%d): fast=%d ref=%d",
							p.now, core, node, size, k, f, r)
					}
				}
			}
			// Step partway through the epoch, crossing a boundary
			// every few size rounds while the meters are hot.
			p.now += p.m.EpochNs / 3
			if i%3 == 2 {
				p.now = (p.now/p.m.EpochNs + 1) * p.m.EpochNs
			}
		}
		epochStart = (p.now/p.m.EpochNs + 2) * p.m.EpochNs
	}
}

// eqCopy runs copy loops — mixed src/dst nodes and kinds, the GC call-site
// shape; after eqContended the meters are still warm.
func eqCopy(p *pair) {
	topo := p.m.Topo
	for _, size := range eqSizes {
		for sn := 0; sn < topo.NumNodes(); sn++ {
			for dn := 0; dn < topo.NumNodes(); dn++ {
				core := (sn*7 + dn) % topo.NumCores()
				p.copyStream(core, sn, dn, size, AccessCache, AccessMemory)
				p.copyStream(core, sn, dn, size, AccessCache, AccessCache)
			}
		}
	}
}

// eqMeterless holds the batched-charge helpers to the general entry points
// on meterless targets.
func eqMeterless(p *pair) {
	topo := p.m.Topo
	for core := 0; core < topo.NumCores(); core++ {
		node := topo.NodeOfCore(core)
		if !p.m.Meterless(core, node, AccessCache) {
			p.t.Fatalf("core %d node %d: own-node cache access must be meterless", core, node)
		}
		if p.m.Meterless(core, node, AccessMemory) {
			p.t.Fatalf("core %d node %d: memory access must not be meterless", core, node)
		}
		for _, size := range eqSizes {
			p.cache(core, node, size)
		}
	}
}

// eqEmpty checks that an empty or negative transfer costs nothing and is
// not traffic, through every entry point.
func eqEmpty(p *pair) {
	topo := p.m.Topo
	before := p.m.Stats()
	for _, size := range []int{0, -8} {
		c := p.m.CacheAccessCost(size) + p.m.CacheStreamCost(size)
		for _, k := range eqKinds {
			c += p.m.AccessCost(p.now, 0, 0, size, k) +
				p.m.transfer(p.now, topo.NumCores()-1, 0, size, k, true) +
				p.m.CopyStreamCost(p.now, 0, 0, topo.NumNodes()-1, size, k, AccessMemory)
		}
		if c != 0 {
			p.t.Fatalf("%d-byte transfers cost %d, want 0", size, c)
		}
	}
	if after := p.m.Stats(); after != before {
		p.t.Fatalf("empty transfers counted as traffic: %+v -> %+v", before, after)
	}
}

// eqOutOfOrder replays a jittered schedule straddling epoch boundaries, hot
// and cold: the engine's serialized schedule is not globally monotone — a
// proc with a smaller clock charges after one with a larger clock.
func eqOutOfOrder(p *pair) {
	topo := p.m.Topo
	base := (p.now/p.m.EpochNs + 2) * p.m.EpochNs
	jit := []int64{0, -1, 17, -p.m.EpochNs / 2, 3, -p.m.EpochNs - 7, p.m.EpochNs / 3, -29}
	for i := 0; i < 400; i++ {
		node := i % topo.NumNodes()
		core := (i * 13) % topo.NumCores()
		size := eqSizes[i%len(eqSizes)]
		now := base + jit[i%len(jit)]
		if now < 0 {
			now = 0
		}
		f := p.m.AccessCost(now, core, node, size, AccessMemory)
		r := p.r.AccessCost(now, core, node, size, AccessMemory)
		if f != r {
			p.t.Fatalf("out-of-order AccessCost(now=%d core=%d node=%d bytes=%d): fast=%d ref=%d",
				now, core, node, size, f, r)
		}
		base += int64(size) % 977
	}
}

// TestFastPathEquivalence sweeps every (core, node, kind, size) combination
// through contended, uncontended, epoch-rolling, and idle-decay regimes,
// asserting Machine returns bit-identical costs and TrafficStats to the
// Reference implementation. Each phase runs once on a fresh machine and
// reference, so it is checked from cold meters, and then all of them run in
// order on one pair, so each is also checked on the state the previous ones
// left.
func TestFastPathEquivalence(t *testing.T) {
	topos := []struct {
		name string
		mk   func() *Topology
	}{
		{"amd48", AMD48},
		{"intel32", Intel32},
		{"custom", func() *Topology {
			return mustCustom(Topology{Name: "eq", Packages: 2, NodesPerPackage: 2, CoresPerNode: 3, LocalBW: 10, SamePkgBW: 8, RemoteBW: 3})
		}},
		// A boarded machine: 4 packages on 2 boards, so cross-board
		// accesses classify PathFar and exercise the far meter tier.
		{"boarded", func() *Topology { return mustCustom(rackSpec("eqboard", 4, 1, 3, 2)) }},
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			for _, ph := range eqPhases {
				p := newPair(t, tc.mk)
				ph.run(p)
				p.checkStats(ph.name + " (fresh)")
			}
			p := newPair(t, tc.mk)
			for _, ph := range eqPhases {
				ph.run(p)
				p.checkStats(ph.name)
			}
		})
	}
}

// TestMeterCarryDecaysPerElapsedEpoch pins the epoch-skip carry rule: when
// several idle epochs pass between charges, residual overload decays by
// half per elapsed epoch, not by half once regardless of the gap.
func TestMeterCarryDecaysPerElapsedEpoch(t *testing.T) {
	const epochNs = int64(1000)
	const budget = 100.0
	cases := []struct {
		gap  int64
		want float64
	}{
		{1, 200}, {2, 100}, {3, 50}, {5, 12.5}, {63, 0}, {100, 0},
	}
	for _, c := range cases {
		mt := meter{}
		mt.charge(0, epochNs, 500, budget) // epoch 0 ends 400 over budget
		mt.charge(c.gap*epochNs, epochNs, 0, budget)
		if mt.bytes != c.want {
			t.Errorf("gap %d: residual = %v, want %v", c.gap, mt.bytes, c.want)
		}
	}

	// The reference meter must apply the identical rule.
	for _, c := range cases {
		mt := refMeter{}
		mt.charge(0, epochNs, 500, budget)
		mt.charge(c.gap*epochNs, epochNs, 0, budget)
		if mt.bytes != c.want {
			t.Errorf("reference gap %d: residual = %v, want %v", c.gap, mt.bytes, c.want)
		}
	}

	// A backward roll — engine timestamps are not globally monotone, so a
	// charge can arrive from the epoch before the meter's current one —
	// decays by one halving, like a single elapsed epoch.
	mt := meter{}
	mt.charge(5*epochNs, epochNs, 500, budget) // epoch 5, 400 over
	mt.charge(4*epochNs, epochNs, 0, budget)   // backward into epoch 4
	if mt.bytes != 200 {
		t.Errorf("backward roll residual = %v, want 200", mt.bytes)
	}
	rmt := refMeter{}
	rmt.charge(5*epochNs, epochNs, 500, budget)
	rmt.charge(4*epochNs, epochNs, 0, budget)
	if rmt.bytes != 200 {
		t.Errorf("reference backward roll residual = %v, want 200", rmt.bytes)
	}
}

// TestMachineCoolsMonotonicallyWithIdleGap checks the observable effect of
// the carry rule: the longer a saturated controller sits idle, the cheaper
// the next access.
func TestMachineCoolsMonotonicallyWithIdleGap(t *testing.T) {
	costAfterGap := func(gap int64) int64 {
		m := NewMachine(AMD48())
		for i := 0; i < 400; i++ {
			m.AccessCost(1000, 6, 0, 1<<16, AccessMemory)
		}
		return m.AccessCost(gap*m.EpochNs, 6, 0, 1<<16, AccessMemory)
	}
	prev := costAfterGap(1)
	for gap := int64(2); gap <= 6; gap++ {
		cur := costAfterGap(gap)
		if cur > prev {
			t.Fatalf("gap %d cost %d exceeds gap %d cost %d", gap, cur, gap-1, prev)
		}
		prev = cur
	}
	if hot, cold := costAfterGap(1), costAfterGap(40); cold >= hot {
		t.Errorf("long idle gap did not cool the controller: hot=%d cold=%d", hot, cold)
	}
}
