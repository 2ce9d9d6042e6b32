package core

import (
	"math"

	"repro/internal/heap"
)

// Memory-pressure resilience: with a heap budget configured
// (Config.GlobalBudgetChunks), allocation failure is a status,
// never a panic. The fallible TryAlloc* entry points mirror the channel
// layer's TrySend contract: before committing new mutator work to the
// heap they consult the chunk budget, walk the emergency collection
// ladder when headroom is gone, and report AllocFailed only when a full
// escalation still cannot free a chunk. Collections themselves never
// fail — they overdraft the budget (heap.ChunkManager.Overdrafts), since
// aborting a copy mid-flight would corrupt the heap.
//
// With no budget every path below short-circuits to the
// corresponding infallible allocator with no extra engine charges, so
// unbounded runs are schedule-identical to the pre-budget runtime.

// AllocStatus is the outcome of a fallible allocation attempt.
type AllocStatus int

const (
	// AllocOK means the allocation succeeded.
	AllocOK AllocStatus = iota
	// AllocFailed means the heap budget is exhausted and the emergency
	// collection ladder could not free headroom; nothing was allocated.
	AllocFailed
)

// String names the status.
func (s AllocStatus) String() string {
	switch s {
	case AllocOK:
		return "ok"
	case AllocFailed:
		return "alloc-failed"
	default:
		return "unknown"
	}
}

// emergencyRetryNs re-arms the emergency ladder after a failed walk: once a
// full escalation fails to free headroom, the gates fail fast until a global
// GC runs, the heap grows by two chunks, or this much virtual time passes —
// one ladder per interval under sustained exhaustion, while still letting
// the heap recover when survivors die.
const emergencyRetryNs = 1_000_000

// ensureGlobalHeadroom is the mutator allocation gate. It returns AllocOK
// immediately while the chunk budget has headroom (always, when no budget
// is set). At the budget it walks the emergency escalation ladder — force
// minor → major → global collection, then retry (forceGlobalCycle). If the
// retry still finds no headroom the failure is recorded and AllocFailed
// returned; subsequent gates then fail fast (no collection) until a global
// GC has run elsewhere, the heap has changed by two chunks, or
// emergencyRetryNs of virtual time has passed, bounding the stop-the-world
// rate under sustained exhaustion.
func (vp *VProc) ensureGlobalHeadroom() AllocStatus {
	rt := vp.rt
	if rt.Chunks.HasHeadroom() {
		return AllocOK
	}
	if rt.ladderFailed &&
		rt.Stats.GlobalGCs == rt.ladderFailGlobalGCs &&
		rt.Chunks.AllocatedWords < rt.ladderFailAllocated+2*rt.Cfg.ChunkWords &&
		vp.Now() < rt.ladderFailNs+emergencyRetryNs {
		vp.Stats.AllocFailed++
		return AllocFailed
	}

	start := vp.Now()
	vp.Stats.EmergencyGCs++
	vp.forceGlobalCycle()
	rt.emit(GCEvent{Kind: EvEmergency, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - start})

	if rt.Chunks.HasHeadroom() {
		rt.ladderFailed = false
		return AllocOK
	}
	rt.ladderFailed = true
	rt.ladderFailGlobalGCs = rt.Stats.GlobalGCs
	rt.ladderFailAllocated = rt.Chunks.AllocatedWords
	rt.ladderFailNs = vp.Now()
	vp.Stats.AllocFailed++
	return AllocFailed
}

// forceGlobalCycle is the emergency escalation: chunks only return to the
// pool when a cycle closes, so it drives a whole cycle to completion — start
// one if none is in flight, join its opening window, assist the mark to
// exhaustion, and join the closing window. Stop-the-world the first window
// is the whole cycle: requesting it zeroes every vproc's limit pointer, and
// participateGC runs this vproc's minor collection (which escalates to a
// major while the global is pending, §3.3) before joining the parallel global
// phase — the ladder's rungs in order — and the mark loop never runs.
func (vp *VProc) forceGlobalCycle() {
	rt := vp.rt
	g := &rt.global
	if !g.pending && !g.marking && !g.termPending {
		rt.requestGlobalGC(vp)
	}
	vp.participateGC()
	for g.marking && !g.termPending {
		vp.gcMark(math.MaxInt)
		if !g.termPending {
			// Gray data is stuck in another vproc's current chunk; only
			// its owner can drain it. Poll until it does.
			vp.advance(rt.Cfg.PollNs)
		}
	}
	vp.participateGC()
}

// TryAllocRaw is the fallible AllocRaw: it allocates only when the heap
// budget has (or the emergency ladder can recover) headroom for the new
// object's eventual promotion, reporting AllocFailed otherwise. With no
// budget configured it is exactly AllocRaw.
func (vp *VProc) TryAllocRaw(payload []uint64) (heap.Addr, AllocStatus) {
	if st := vp.ensureGlobalHeadroom(); st != AllocOK {
		return 0, st
	}
	return vp.AllocRaw(payload), AllocOK
}

// TryAllocRawN is the fallible AllocRawN.
func (vp *VProc) TryAllocRawN(n int) (heap.Addr, AllocStatus) {
	if st := vp.ensureGlobalHeadroom(); st != AllocOK {
		return 0, st
	}
	return vp.AllocRawN(n), AllocOK
}

// TryPromote is the fallible Promote: the headroom check runs before the
// copy starts, because a promotion cannot abort halfway — once underway
// it overdrafts like any collection. Global addresses and nil pass
// through unchanged without consulting the budget (no new heap growth).
func (vp *VProc) TryPromote(a heap.Addr) (heap.Addr, AllocStatus) {
	if a == 0 {
		return 0, AllocOK
	}
	if r := vp.rt.Space.Region(a.RegionID()); r.Kind != heap.RegionLocal {
		return a, AllocOK
	}
	if st := vp.ensureGlobalHeadroom(); st != AllocOK {
		return 0, st
	}
	return vp.Promote(a), AllocOK
}
