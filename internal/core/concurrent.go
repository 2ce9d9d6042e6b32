package core

import (
	"math"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Mostly-concurrent global collection (Config.ConcurrentGlobal): the mark
// between the windows.
//
// A stop-the-world collection (global.go) runs its whole cycle — condemn,
// scan all roots and local heaps, drain every to-space chunk, release —
// inside one window, a pause that grows with the live global heap and
// dominates the p99.9 request tail. The concurrent collector runs the same
// cycle, through the same globalWindow, as two short windows with a
// mutator-interleaved mark between them; this file is that mark, plus the
// pacer that decides when the next cycle opens.
//
//	open window     (globalWindow under pending) the leader condemns the
//	                active chunks; every vproc scans its roots and whole
//	                local heap (including the live nursery — no minor/major
//	                runs first), evacuating from-space referents into fresh
//	                gray to-space chunks. No chunk draining happens: the
//	                window ends as soon as the roots are black.
//
//	concurrent mark mutators run. Gray data (to-space words in [Scan, Top))
//	                is drained by allocation-paced mark assists at safepoints
//	                and by idle vprocs. Tri-color discipline for a copying
//	                collector: white = from-space objects, gray = unscanned
//	                to-space words, black = scanned to-space words. Fresh
//	                global allocation lands gray (allocate-gray), so anything
//	                a mutator builds during the mark is scanned before the
//	                cycle closes. A Dijkstra-style insertion barrier
//	                (gcWriteBarrier) shades values stored into global
//	                objects: the only stores that could hide a white object
//	                behind a black one are stores of from-space addresses,
//	                and the barrier evacuates those on the spot, charged
//	                through the NUMA cost model like any evacuation.
//
//	close window    (globalWindow under termPending) once no gray data
//	                remains, the world stops again: a second root scan picks
//	                up everything mutators stored since the first,
//	                global-root objects dirtied during the mark are rescanned
//	                slot-by-slot (channel records pop their head link without
//	                the barrier; the rescan heals them and seeds their chains
//	                gray), the drain runs to empty, promotion forwarding is
//	                repaired, and the from-space is released.
//
// The pacer (updatePacer) sets the next cycle's trigger from the measured
// survival and the allocation observed during the mark, GOGC-style: the goal
// heap is survived*(1+gcPercent/100) and the trigger is backed off from the
// goal by twice the last mark's allocation so the cycle finishes around the
// goal instead of overshooting it.
//
// With ConcurrentGlobal off, none of this code runs: every hook is behind the
// marking/termPending flags, which stay false forever — the one window both
// opens and closes the cycle, and the mark between has zero length.

// gcAssistMinWords is the floor on a nonzero mark-assist budget: paying a
// few words of debt at a time would charge the fixed assist overheads per
// visit without retiring gray data.
const gcAssistMinWords = 512

// gcTrigger is the global-collection trigger threshold in allocated global
// words. Stop-the-world it is the static configuration value. Concurrent mode
// uses the pacer's moving trigger, and is inert (MaxInt) while a cycle is in
// flight — evacuation doubles the active chunkage mid-cycle, and re-raising
// pending during a mark would wedge the protocol.
func (rt *Runtime) gcTrigger() int {
	if !rt.Cfg.ConcurrentGlobal {
		return rt.Cfg.GlobalTriggerWords
	}
	g := &rt.global
	if g.marking || g.termPending {
		return math.MaxInt
	}
	if g.trigger > 0 {
		return g.trigger
	}
	return rt.Cfg.GlobalTriggerWords
}

// gcAssist is a mark assist: it drains at least budget words of gray
// to-space data (drainGray) on the vproc's own goroutine and accounts the
// work to the assist statistics.
func (vp *VProc) gcAssist(budget int) {
	start := vp.Now()
	vp.Stats.MarkAssistWords += int64(vp.drainGray(budget))
	vp.Stats.MarkAssistNs += vp.Now() - start
}

// gcMark runs mark work on the vproc's own goroutine: assist for budget
// words, then request the closing window once no gray data remains anywhere.
// Idle vprocs and the emergency ladder pass math.MaxInt — drain everything
// reachable. A no-op outside a mark.
func (vp *VProc) gcMark(budget int) {
	rt := vp.rt
	g := &rt.global
	if !g.marking || g.termPending {
		return
	}
	if budget > 0 {
		vp.gcAssist(budget)
	}
	if g.marking && !g.termPending && rt.globalScanDrained() {
		rt.requestGlobalTermination(vp)
	}
}

// gcMarkPoint is the mutator's safepoint hook during a concurrent mark: pay
// down the allocation-paced assist debt (scan 2x the words allocated since
// the last safepoint — the mark must outrun allocation to terminate). A vproc
// whose own current chunk holds gray data assists even without debt: no other
// vproc can reach that chunk, so the owner is the only one who can retire it.
func (vp *VProc) gcMarkPoint() {
	g := &vp.rt.global
	if !g.marking || g.termPending || vp.crashed {
		return
	}
	budget := 2 * vp.assistDebt
	vp.assistDebt = 0
	if c := vp.curChunk; budget > 0 || c != nil && c.Scan < c.Top {
		budget = max(budget, gcAssistMinWords)
	}
	vp.gcMark(budget)
}

// gcMarkAttention reports whether an idle vproc has mark work to run
// off-machine: gray data it can reach (its own current chunk or the scan
// lists), or a fully drained mark that needs its termination requested. It
// is called from inside the idle sweep's step function, so it only reads
// state mutated by goroutine-bound vprocs and writes nothing.
func (vp *VProc) gcMarkAttention() bool {
	g := &vp.rt.global
	if !g.marking || g.termPending {
		return false
	}
	if c := vp.curChunk; c != nil && c.Scan < c.Top {
		return true
	}
	for _, l := range g.scanByNode {
		if len(l) > 0 {
			return true
		}
	}
	// No listed work and our chunk is clean: if the mark is globally
	// drained the idle handler must request termination; if gray data
	// hides in another vproc's current chunk only its owner can help.
	return vp.rt.globalScanDrained()
}

// gcWriteBarrier is the Dijkstra-style insertion barrier: shade the value
// being stored into a global object. White (from-space) values are evacuated
// on the spot — the store then publishes a black-safe to-space address — and
// the evacuation is charged to the mutator through the NUMA cost model
// (globalForward's copy charges). Everything else passes through chargeless,
// and outside a mark the barrier is the identity.
func (vp *VProc) gcWriteBarrier(a heap.Addr) heap.Addr {
	if a == 0 || !vp.rt.global.marking {
		return a
	}
	start := vp.Now()
	na := vp.globalForward(a)
	if vp.Now() != start {
		vp.Stats.BarrierHits++
		vp.Stats.BarrierNs += vp.Now() - start
	}
	return na
}

// gcDirtyRoot marks a registered global-root object for the termination
// window's rescan: the caller just stored an address read out of unscanned
// chain data into one of its traced slots, which may be a from-space
// reference planted in an already-black object. Shading the stored value
// instead would evacuate mid-commit — an advance inside a segment whose
// caller already observed queue state, reopening the double-delivery race —
// so the heal is deferred to the termination window. Host-side bookkeeping:
// chargeless, deterministic (appends happen in virtual-time order), and a
// no-op outside a mark.
func (vp *VProc) gcDirtyRoot(a heap.Addr) {
	g := &vp.rt.global
	if !g.marking || a == 0 || g.dirtySet[a] {
		return
	}
	if g.dirtySet == nil {
		g.dirtySet = make(map[heap.Addr]bool)
	}
	g.dirtySet[a] = true
	g.dirtyRoots = append(g.dirtyRoots, a)
}

// rescanGlobalRootObjects re-forwards the traced slots of every global-root
// object dirtied during the mark. Channel records are the motivating case:
// popping a message rewrites the record's head link with an address read out
// of the (possibly unscanned) chain node, without the write barrier, so the
// record can accumulate white references during the mark. Clean records need
// no rescan: they were evacuated gray at the snapshot and their slots were
// forwarded when the drain scanned them. Re-forwarding the dirty slots here
// heals them and seeds the reachable chain nodes gray; the termination drain
// then scans the chains themselves. Charged as one streaming read per dirty
// object plus the usual evacuation charges.
func (vp *VProc) rescanGlobalRootObjects() {
	rt := vp.rt
	for _, a := range rt.global.dirtyRoots {
		heap.ScanObject(rt.Space, rt.Descs, a, func(_ int, p heap.Addr) heap.Addr {
			return vp.globalForward(p)
		})
		n := rt.Space.ObjectLen(a)
		node := rt.Space.NodeOf(a)
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, n*8, numa.AccessMemory))
	}
	rt.global.dirtyRoots = nil
	rt.global.dirtySet = nil
}

// updatePacer sets the next cycle's trigger at the end of a collection
// (GOGC discipline). The goal heap is survived*(1+gcPercent/100); the
// trigger backs off from the goal by twice the allocation observed during
// the last mark (clamped to [goal/8, goal/2]) so the next cycle terminates
// near the goal instead of overshooting it. markEndAllocated is the active
// chunkage just before the from-space release.
func (rt *Runtime) updatePacer(markEndAllocated int) {
	g := &rt.global
	survived := rt.Chunks.AllocatedWords
	goal := survived + survived*gcPercent/100
	if goal < rt.Cfg.GlobalTriggerWords {
		goal = rt.Cfg.GlobalTriggerWords
	}
	headroom := 2 * (markEndAllocated - g.markStartAllocated)
	if min := goal / 8; headroom < min {
		headroom = min
	}
	if max := goal / 2; headroom > max {
		headroom = max
	}
	g.trigger = goal - headroom
	if floor := survived + goal/8; g.trigger < floor {
		g.trigger = floor
	}
}
