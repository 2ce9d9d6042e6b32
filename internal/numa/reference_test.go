package numa

// Reference is the straight-line implementation of the cost model, kept as
// the oracle of the equivalence test: per-access Topo.Path classification,
// switch-based bandwidth/latency lookups, budgets recomputed on every charge,
// and no cached epoch bounds. It computes exactly what Machine computes —
// Machine precomputes the path classification, budgets and epoch bounds of
// this math, it does not approximate it — so TestFastPathEquivalence and the
// microbenchmarks can hold Machine to bit-identical results. The only
// intentional semantic shared with Machine but not with the original seed
// code is the epoch-carry rule: residual overload decays by half per
// elapsed epoch (see refMeter.charge).
type Reference struct {
	Topo    *Topology
	EpochNs int64

	ctrl   []refMeter
	remote []refMeter
	far    []refMeter

	stats TrafficStats
}

// refMeter tracks demand against a byte budget within the current epoch.
type refMeter struct {
	epoch int64
	bytes float64
}

// NewReference wraps a topology with fresh contention state.
func NewReference(t *Topology) *Reference {
	return &Reference{
		Topo:    t,
		EpochNs: 50_000,
		ctrl:    make([]refMeter, t.NumNodes()),
		remote:  make([]refMeter, t.NumNodes()),
		far:     make([]refMeter, t.NumNodes()),
	}
}

// Stats returns a copy of the accumulated traffic statistics.
func (m *Reference) Stats() TrafficStats { return m.stats }

// charge adds demand to a meter and returns the congestion multiplier in
// effect for this transfer. On an epoch roll, residual overload decays by
// half per elapsed epoch; a backward roll decays by one halving (the same
// rule as meter.roll).
func (mt *refMeter) charge(now int64, epochNs int64, bytes, budget float64) float64 {
	e := now / epochNs
	if e != mt.epoch {
		gap := e - mt.epoch
		over := mt.bytes - budget
		mt.epoch = e
		switch {
		case over <= 0 || gap >= 63:
			mt.bytes = 0
		case gap < 1:
			mt.bytes = over / 2
		default:
			mt.bytes = over / float64(int64(1)<<uint(gap))
		}
	}
	mult := 1.0
	if mt.bytes > budget {
		mult += (mt.bytes - budget) / budget
	}
	mt.bytes += bytes
	return mult
}

// AccessCost is Machine.AccessCost computed the straight-line way.
func (m *Reference) AccessCost(now int64, core, memNode, bytes int, kind AccessKind) int64 {
	if bytes <= 0 {
		return 0
	}
	t := m.Topo
	m.stats.Accesses++
	path := t.Path(core, memNode)

	if kind == AccessCache && path == PathLocal {
		m.stats.CacheBytes += uint64(bytes)
		return int64(t.CacheLat + float64(bytes)/t.CacheBW)
	}
	m.stats.BytesByPath[path] += uint64(bytes)

	bw := t.Bandwidth(path)
	lat := t.Latency(path)
	budget := t.LocalBW * float64(m.EpochNs)

	demand := float64(bytes)
	if demand < lineBytes {
		demand = lineBytes
	}

	mult := m.ctrl[memNode].charge(now, m.EpochNs, demand, budget)
	if path >= PathRemote {
		rbudget := t.RemoteBW * float64(m.EpochNs)
		if rm := m.remote[memNode].charge(now, m.EpochNs, demand, rbudget); rm > mult {
			mult = rm
		}
	}
	if path == PathFar {
		fbudget := t.FarBW * float64(m.EpochNs)
		if fm := m.far[memNode].charge(now, m.EpochNs, demand, fbudget); fm > mult {
			mult = fm
		}
	}

	if mult > 1 {
		return int64((lat + demand/bw) * mult)
	}
	return int64(lat + demand/bw)
}

// StreamCost is Machine's streaming transfer (transfer with stream set)
// computed the straight-line way: no per-access latency, and demand not
// rounded up to a cache line.
func (m *Reference) StreamCost(now int64, core, memNode, bytes int, kind AccessKind) int64 {
	if bytes <= 0 {
		return 0
	}
	t := m.Topo
	m.stats.Accesses++
	path := t.Path(core, memNode)
	if kind == AccessCache && path == PathLocal {
		m.stats.CacheBytes += uint64(bytes)
		return int64(float64(bytes) / t.CacheBW)
	}
	m.stats.BytesByPath[path] += uint64(bytes)
	bw := t.Bandwidth(path)
	budget := t.LocalBW * float64(m.EpochNs)
	demand := float64(bytes)
	mult := m.ctrl[memNode].charge(now, m.EpochNs, demand, budget)
	if path >= PathRemote {
		rbudget := t.RemoteBW * float64(m.EpochNs)
		if rm := m.remote[memNode].charge(now, m.EpochNs, demand, rbudget); rm > mult {
			mult = rm
		}
	}
	if path == PathFar {
		fbudget := t.FarBW * float64(m.EpochNs)
		if fm := m.far[memNode].charge(now, m.EpochNs, demand, fbudget); fm > mult {
			mult = fm
		}
	}
	return int64(float64(bytes) / bw * mult)
}

// CopyStreamCost composes two StreamCosts, as Machine.CopyStreamCost does.
func (m *Reference) CopyStreamCost(now int64, core, srcNode, dstNode, bytes int, srcKind, dstKind AccessKind) int64 {
	c := m.StreamCost(now, core, srcNode, bytes, srcKind)
	c += m.StreamCost(now+c, core, dstNode, bytes, dstKind)
	return c
}
