package numa

import "fmt"

// AccessKind distinguishes accesses that are likely to be served by the
// node-local cache hierarchy from ones that must go to memory.
type AccessKind int

const (
	// AccessCache marks traffic against a vproc's own local heap, which
	// is sized to fit in L3 (§3.1): when the backing pages are on the
	// issuing core's node it is charged at cache cost.
	AccessCache AccessKind = iota
	// AccessMemory marks traffic that must reach DRAM (global heap,
	// first-touch streaming, remote data).
	AccessMemory
)

// Machine couples a Topology with dynamic contention state. It charges a
// cost, in virtual nanoseconds, for every modelled memory transfer.
//
// Contention model: each node's memory controller and each node's remote
// ingress path have a byte budget per epoch (bandwidth x epoch length).
// Traffic beyond the budget stretches service time proportionally, which is
// how the model reproduces the bus saturation the paper observes when all
// nodes hammer socket zero (§4.3). Callers are serialized by the
// virtual-time engine and present non-decreasing timestamps.
//
// Every charge is computed directly by one of two routines — transfer for
// metered traffic, cacheTransfer for own-cache traffic — from the per-path
// constants below; nothing is tabulated by transfer size. Two things are
// precomputed because every charge needs them: pathTab, so classifying an
// access is one load instead of Topo.Path's chain of node, package and
// board lookups, and the per-epoch budgets with each meter's cached epoch
// start, so the common same-epoch charge does no integer division.
// TestFastPathEquivalence holds every charge bit-for-bit to a straight-line
// oracle of the same model, Reference, which lives in reference_test.go.
type Machine struct {
	Topo *Topology

	// EpochNs is the contention accounting window. It is fixed at
	// construction; the per-epoch budgets and the meters' cached epoch
	// bounds are derived from it, so it must not be mutated after the
	// first charge.
	EpochNs int64

	ctrl   []meter // per-node memory-controller demand
	remote []meter // per-node ingress demand from other packages
	far    []meter // per-node ingress demand from other boards

	nNodes int
	// pathTab flattens Topo.Path into one row per core:
	// pathTab[core*nNodes+memNode] is the PathKind of that access.
	pathTab []uint8
	// pathCost holds the per-path latency and bandwidth constants from
	// Table 1, indexed by PathKind.
	pathCost [4]pathParam
	// ctrlBudget, remoteBudget and farBudget are the per-epoch byte
	// budgets of the home memory controller, the remote ingress links,
	// and the inter-board ingress links (boarded topologies only).
	ctrlBudget   float64
	remoteBudget float64
	farBudget    float64
	// cacheLat and cacheBW model an L3 hit (the meterless path).
	cacheLat float64
	cacheBW  float64

	// Traffic accumulators. Accumulation is branch-free: every charge adds
	// its bytes and bumps its count at a single computed index — 0..3 are
	// the PathKinds, 4 (cacheIdx) is own-cache traffic — and Stats
	// assembles the public TrafficStats shape on demand. Counts are kept
	// per slot (instead of one shared counter) so back-to-back charges on
	// different paths do not serialize on one read-modify-write chain.
	bytesAcc [5]uint64
	countAcc [5]uint64
}

// pathParam holds the cost constants of one path kind.
type pathParam struct {
	lat float64 // base latency, ns
	bw  float64 // bandwidth, bytes/ns
}

// cacheIdx is the bytesAcc slot for own-cache (meterless) traffic.
const cacheIdx = 4

// lineBytes is the cache-line transfer granularity used for contention
// accounting.
const lineBytes = 64

// meter tracks demand against a byte budget within the current epoch.
//
// Although the engine serializes all callers, charge timestamps are not
// globally monotone: a proc with a smaller clock can charge after one with
// a larger clock (it is scheduled precisely because its clock is smaller),
// so a charge may arrive from the epoch before the meter's current one.
// The same-epoch test must therefore bound now on both sides.
type meter struct {
	epoch int64
	// epochStart caches epoch*EpochNs so the common same-epoch charge is
	// one unsigned comparison instead of an integer division. The zero
	// value (epoch 0, start 0) is a valid fresh meter.
	epochStart int64
	bytes      float64
}

// TrafficStats aggregates modelled traffic, for reports and tests.
type TrafficStats struct {
	BytesByPath [4]uint64 // indexed by PathKind
	CacheBytes  uint64
	Accesses    uint64
}

// NewMachine wraps a topology with fresh contention state.
func NewMachine(t *Topology) *Machine {
	const epochNs = 50_000
	n := t.NumNodes()
	m := &Machine{
		Topo:         t,
		EpochNs:      epochNs,
		ctrl:         make([]meter, n),
		remote:       make([]meter, n),
		far:          make([]meter, n),
		nNodes:       n,
		pathTab:      make([]uint8, t.NumCores()*n),
		ctrlBudget:   t.LocalBW * epochNs,
		remoteBudget: t.RemoteBW * epochNs,
		farBudget:    t.FarBW * epochNs,
		cacheLat:     t.CacheLat,
		cacheBW:      t.CacheBW,
	}
	for core := 0; core < t.NumCores(); core++ {
		for node := 0; node < n; node++ {
			m.pathTab[core*n+node] = uint8(t.Path(core, node))
		}
	}
	for _, p := range []PathKind{PathLocal, PathSamePackage, PathRemote, PathFar} {
		m.pathCost[p] = pathParam{lat: t.Latency(p), bw: t.Bandwidth(p)}
	}
	return m
}

// Stats returns a copy of the accumulated traffic statistics.
func (m *Machine) Stats() TrafficStats {
	return TrafficStats{
		BytesByPath: [4]uint64{m.bytesAcc[0], m.bytesAcc[1], m.bytesAcc[2], m.bytesAcc[3]},
		CacheBytes:  m.bytesAcc[cacheIdx],
		Accesses:    m.countAcc[0] + m.countAcc[1] + m.countAcc[2] + m.countAcc[3] + m.countAcc[cacheIdx],
	}
}

// charge adds demand to a meter and returns the congestion multiplier in
// effect for this transfer: 1 when the epoch budget is unused, growing
// linearly with the demand already queued this epoch.
func (mt *meter) charge(now int64, epochNs int64, bytes, budget float64) float64 {
	if uint64(now-mt.epochStart) >= uint64(epochNs) {
		mt.roll(now, epochNs, budget)
	}
	if mt.bytes <= budget {
		mt.bytes += bytes
		return 1
	}
	mult := 1.0
	mult += (mt.bytes - budget) / budget
	mt.bytes += bytes
	return mult
}

// roll moves the meter into now's epoch. Residual overload decays by half
// for every elapsed epoch — a controller that was saturated and then sat
// idle for g epochs carries over/2^g into the new epoch, so a long idle gap
// cools it all the way down instead of halving once regardless of the gap.
// A backward roll (a charge from the epoch before the meter's current one,
// possible because engine timestamps are not globally monotone) decays by
// one halving, the same as a single elapsed epoch.
func (mt *meter) roll(now, epochNs int64, budget float64) {
	e := now / epochNs
	gap := e - mt.epoch
	mt.epoch = e
	mt.epochStart = e * epochNs
	over := mt.bytes - budget
	switch {
	case over <= 0 || gap >= 63:
		mt.bytes = 0
	case gap < 1:
		mt.bytes = over / 2
	default:
		mt.bytes = over / float64(int64(1)<<uint(gap))
	}
}

// AccessCost returns the virtual-ns cost of a transfer of the given number
// of bytes between the issuing core and memory homed on memNode, and
// accounts the traffic for contention purposes. now is the issuing vproc's
// current virtual time.
func (m *Machine) AccessCost(now int64, core, memNode, bytes int, kind AccessKind) int64 {
	return m.transfer(now, core, memNode, bytes, kind, false)
}

// CopyStreamCost returns the streaming cost of copying bytes from memory
// homed on srcNode to memory homed on dstNode, as performed by the given
// core (the GC copy loop): a read from the source, then a write to the
// destination at the instant the read completes. A streaming transfer is
// AccessCost without the per-access latency — the collector's
// object-at-a-time copies are contiguous and prefetched — and its demand is
// not rounded up to a cache line (it moves exactly its bytes).
func (m *Machine) CopyStreamCost(now int64, core, srcNode, dstNode, bytes int, srcKind, dstKind AccessKind) int64 {
	c := m.transfer(now, core, srcNode, bytes, srcKind, true)
	c += m.transfer(now+c, core, dstNode, bytes, dstKind, true)
	return c
}

// transfer is the one metered charge behind AccessCost (stream false) and
// CopyStreamCost (stream true): validation, path classification, the
// contention meters on the route, and the congestion-scaled cost.
func (m *Machine) transfer(now int64, core, memNode, bytes int, kind AccessKind, stream bool) int64 {
	if bytes <= 0 {
		return 0
	}
	if uint(memNode) >= uint(m.nNodes) {
		panic(fmt.Sprintf("numa: access to invalid node %d", memNode))
	}
	path := PathKind(m.pathTab[core*m.nNodes+memNode])
	if kind == AccessCache && path == PathLocal {
		return m.cacheTransfer(bytes, stream)
	}
	m.countAcc[path]++
	m.bytesAcc[path] += uint64(bytes)

	// An access pays the path latency, and its demand is accounted at
	// cache-line granularity: a random 8-byte load still moves a full line
	// across the interconnect, which is what saturates links under
	// scattered shared-data access (SMVM's vector, the Barnes-Hut tree).
	// A streaming transfer is prefetched and moves exactly its bytes.
	pc := &m.pathCost[path]
	demand := float64(bytes)
	var base float64
	if stream {
		base = demand / pc.bw
	} else {
		if demand < lineBytes {
			demand = lineBytes
		}
		base = pc.lat + demand/pc.bw
	}

	// Memory-controller contention at the home node applies to every
	// DRAM access.
	mult := m.ctrl[memNode].charge(now, m.EpochNs, demand, m.ctrlBudget)

	// Remote and far transfers additionally contend for the target
	// node's ingress links, whose budget is the remote path bandwidth;
	// far transfers also cross the shared inter-board fabric and ride a
	// third meter with the (much smaller) far budget. The effective
	// multiplier is the worst queue on the route.
	if path >= PathRemote {
		if rm := m.remote[memNode].charge(now, m.EpochNs, demand, m.remoteBudget); rm > mult {
			mult = rm
		}
		if path == PathFar {
			if fm := m.far[memNode].charge(now, m.EpochNs, demand, m.farBudget); fm > mult {
				mult = fm
			}
		}
	}

	// Under saturation the multiplier applies to the base latency as well
	// as the transfer term, modelling queueing at the saturated controller
	// or link. This is what makes scattered access to one node's memory
	// stop scaling (the SMVM vector, §4.2-4.3).
	if mult > 1 {
		base *= mult
	}
	return int64(base)
}

// --- Batched charging ------------------------------------------------------

// Meterless reports whether an access by core to memNode with the given
// kind bypasses the contention meters entirely (own-cache traffic on a
// node-local path). A meterless transfer's cost depends on nothing but its
// size — not on virtual time and not on any meter state — which is what
// makes fusing a run of them into a single engine charge exact: the caller
// may accumulate CacheAccessCost/CacheStreamCost results and advance its
// clock once, with a total bit-identical to charging each transfer
// individually (each transfer keeps its own int64 truncation).
// An out-of-range memNode reports false, sending the caller to
// AccessCost/CopyStreamCost, which validate and panic descriptively.
func (m *Machine) Meterless(core, memNode int, kind AccessKind) bool {
	return kind == AccessCache && uint(memNode) < uint(m.nNodes) &&
		m.pathTab[core*m.nNodes+memNode] == uint8(PathLocal)
}

// CacheAccessCost charges one meterless access: what AccessCost returns
// for it, callable without a timestamp because the result is
// time-independent. The caller must have established Meterless.
func (m *Machine) CacheAccessCost(bytes int) int64 { return m.cacheTransfer(bytes, false) }

// CacheStreamCost charges one meterless streaming access: what each half of
// CopyStreamCost charges for it. The caller must have established Meterless.
func (m *Machine) CacheStreamCost(bytes int) int64 { return m.cacheTransfer(bytes, true) }

// cacheTransfer is the one meterless charge: an L3 hit, with the hit
// latency unless streaming.
func (m *Machine) cacheTransfer(bytes int, stream bool) int64 {
	if bytes <= 0 {
		return 0
	}
	m.countAcc[cacheIdx]++
	m.bytesAcc[cacheIdx] += uint64(bytes)
	base := float64(bytes) / m.cacheBW
	if !stream {
		base = m.cacheLat + base
	}
	return int64(base)
}

// BandwidthTable formats Table 1 of the paper for this machine: the
// theoretical bandwidth available between a single node and the rest of the
// system.
func (m *Machine) BandwidthTable() string {
	t := m.Topo
	s := fmt.Sprintf("Theoretical bandwidth, machine %s (GB/s)\n", t.Name)
	s += fmt.Sprintf("  Local Memory            %5.1f\n", t.LocalBW)
	if t.NodesPerPackage > 1 {
		s += fmt.Sprintf("  Node in same package    %5.1f\n", t.SamePkgBW)
	} else {
		s += "  Node in same package      n/a\n"
	}
	s += fmt.Sprintf("  Node on another package %5.1f\n", t.RemoteBW)
	if t.Boards() > 1 {
		s += fmt.Sprintf("  Node on another board   %5.1f\n", t.FarBW)
	}
	return s
}
