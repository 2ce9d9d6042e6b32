package core

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// Global collection (§3.4): a parallel copying collection of the global heap,
// built from one stop-the-world window (globalWindow) that does up to three
// things:
//
//	open    the leader condemns the active chunks: they become from-space,
//	        gathered per NUMA node, and every vproc's current chunk is
//	        invalidated.
//	scan    every vproc scans its roots and local heap, evacuating from-space
//	        referents into fresh to-space chunks obtained on its own node.
//	close   all vprocs drain the unscanned to-space chunks node-locally,
//	        preserving affinity, until none remain anywhere; promotion
//	        forwarding words are repaired; the leader returns the from-space
//	        chunks to the free pool (node-affine).
//
// The paper's collector is the window that does all three: the triggering
// vproc becomes the leader, sets the pending flag, and signals all other
// vprocs by zeroing their allocation-limit pointers; every vproc first
// performs its minor and major collections, so on entry all live local data
// is young data whose outgoing global references are the global roots. The
// mostly-concurrent collector (Config.ConcurrentGlobal, concurrent.go) runs
// the same cycle as an open+scan window and a scan+close window with the
// mutator-interleaved mark between them — the stop-the-world collection is
// that cycle with a zero-length mark.
type globalState struct {
	// pending requests the window that opens a cycle (and, stop-the-world,
	// closes it too); termPending requests the window that closes the
	// concurrent cycle in flight. marking is true between those two windows:
	// mutators run, the write barrier is armed, and assists drain gray
	// chunks. Without ConcurrentGlobal only pending is ever raised.
	pending     bool
	termPending bool
	marking     bool
	// scanning is true while from-space chunks exist, open to close.
	// getChunk consults it to queue replaced chunks that still hold
	// unscanned data.
	scanning bool
	leader   int

	// One barrier set serves every window: the windows of a cycle are
	// strictly ordered and the barriers are cyclic. A close-only window
	// skips setup (nothing is condemned, so nothing to wait for).
	entry    *vtime.Barrier
	setup    *vtime.Barrier
	scanDone *vtime.Barrier
	finish   *vtime.Barrier

	// scanByNode holds to-space chunks with unscanned data, grouped by
	// the node their pages live on.
	scanByNode [][]*heap.Chunk
	fromChunks []*heap.Chunk
	copied     int64
	startNs    int64

	// Pacer state (concurrent mode). trigger is the next cycle's start
	// threshold in active global words (0 = use Cfg.GlobalTriggerWords);
	// markStartAllocated records the active words at the end of the opening
	// window so the cycle's concurrent allocation rate can set the next
	// headroom. windowStart times the current window.
	trigger            int
	markStartAllocated int
	windowStart        int64

	// dirtyRoots lists the registered global-root objects whose traced
	// slots were rewritten during the current mark with addresses read out
	// of unscanned data (channel records popping their head link) — the
	// one store path that can plant a from-space reference in an
	// already-black object without the insertion barrier. The closing
	// window rescans exactly these instead of every registered root.
	// Appended in virtual-time order, so the set is deterministic.
	dirtyRoots []heap.Addr
	dirtySet   map[heap.Addr]bool
}

func (g *globalState) init(rt *Runtime) {
	n := rt.Cfg.NumVProcs
	g.entry = vtime.NewBarrier(n, stwBarrierNs)
	g.setup = vtime.NewBarrier(n, stwBarrierNs)
	g.scanDone = vtime.NewBarrier(n, stwBarrierNs)
	g.finish = vtime.NewBarrier(n, stwBarrierNs)
	g.scanByNode = make([][]*heap.Chunk, rt.Cfg.Topo.NumNodes())
}

// requestGlobalGC is called by the vproc that observed the trigger (§3.4
// steps 1-2): set the flag, take leadership, and signal every vproc.
func (rt *Runtime) requestGlobalGC(vp *VProc) {
	g := &rt.global
	rt.rouseLoopTops()
	g.pending = true
	g.leader = vp.ID
	g.startNs = vp.Now()
	rt.emit(GCEvent{Kind: EvGlobalStart, VProc: vp.ID, At: g.startNs})
	rt.signalVProcs(vp)
}

// requestGlobalTermination raises the closing window of a concurrent cycle.
// The caller observed globalScanDrained in the same engine segment, so no
// gray data can appear before the flag is up (allocation is a safepoint, and
// safepoints now divert to the rendezvous).
func (rt *Runtime) requestGlobalTermination(vp *VProc) {
	rt.rouseLoopTops()
	rt.global.termPending = true
	rt.signalVProcs(vp)
}

// signalVProcs zeroes every vproc's limit pointer, including the requester's
// own, so its next safepoint joins the window even if it stops allocating.
// Crashed vprocs are not signalled: they left the barrier protocol at crash
// time (Barrier.Drop) and will never reach another safepoint, so signalling
// them would charge time for a vproc that cannot respond.
func (rt *Runtime) signalVProcs(vp *VProc) {
	for _, other := range rt.VProcs {
		if other.crashed {
			continue
		}
		other.Local.ZeroLimit()
		if other != vp {
			vp.advance(signalVProcNs)
		}
	}
}

// participateGC is the safepoint service for the global collector: it joins
// each pending window. Before the window that opens a stop-the-world
// collection, §3.4 step 3 requires the vproc to perform its minor and major
// collections (minorGC triggers the major automatically while global.pending
// is set); the concurrent collector's windows skip them — the root walk
// covers the live nursery instead.
//
// The heap-idle wait is load-bearing: a thief may be mid-promotion out of
// this vproc's heap (heapBusy), suspended inside one of the promotion's
// chunk-fetch or copy charges. Collecting under it would move and slide the
// very objects the thief's in-flight addresses name — the thief then writes
// forwarding words at stale offsets, splitting live objects (observed as
// duplicated and corrupted channel messages under the open-loop traffic
// harness). Every caller — the allocation safepoint, the preemption check,
// the idle loops — comes through here, so every one waits.
func (vp *VProc) participateGC() {
	g := &vp.rt.global
	if g.pending {
		vp.waitHeapIdle()
		if !vp.rt.Cfg.ConcurrentGlobal {
			vp.minorGC()
		}
		vp.globalWindow()
	}
	if g.termPending {
		vp.waitHeapIdle()
		vp.globalWindow()
	}
}

// globalWindow is the stop-the-world window every global collection is made
// of (see the comment above globalState), and the only code that arrives at
// the collection barriers. A window entered under pending opens a cycle; one
// entered under termPending — or any window of the stop-the-world collector —
// closes it. An open-only window is accounted as the concurrent cycle's
// snapshot window (EvSnapshot, SnapshotNs), a close-only one as its
// termination window (EvTermination, TermNs). Stop-the-world, all vprocs
// arrive with empty nurseries and only young data in their local heaps.
func (vp *VProc) globalWindow() {
	rt := vp.rt
	g := &rt.global
	concurrent := rt.Cfg.ConcurrentGlobal
	opens, closes := g.pending, g.termPending || !concurrent
	start := vp.Now()

	// Rendezvous. After this barrier no vproc allocates in the global heap
	// until scanning starts. Leadership is read after it: a leader that
	// crashes hands over before anyone can pass (crash), so a window led by
	// a crashed vproc is a broken handover, which would wait for the leader
	// forever.
	g.entry.Arrive(vp.proc)
	if rt.VProcs[g.leader].crashed {
		panic(fmt.Sprintf("core: global window on vproc %d led by crashed vproc %d", vp.ID, g.leader))
	}
	leader := vp.ID == g.leader
	if leader {
		g.windowStart = vp.Now()
	}

	// Open: the leader condemns the global heap: all active chunks become
	// from-space, gathered on a per-node basis.
	if opens {
		if leader {
			g.fromChunks = rt.Chunks.TakeActive()
			for _, c := range g.fromChunks {
				c.FromSpace = true
			}
			rt.Stats.ChunksFromSpace += len(g.fromChunks)
			// Condemning invalidates every vproc's current chunk.
			for _, o := range rt.VProcs {
				o.curChunk = nil
			}
			g.scanning = true
			vp.advance(int64(len(g.fromChunks)) * 25) // list gathering
		}
		g.setup.Arrive(vp.proc)
	}

	// Scan: each vproc walks its roots and local heap, copying reachable
	// from-space objects into fresh to-space chunks obtained on its own
	// node. The concurrent collector's windows run without the minor/major
	// collections, so there the live nursery is part of the walk.
	vp.globalScanRoots(vp, concurrent)
	if leader {
		for _, pa := range rt.globalRoots {
			*pa = vp.globalForward(*pa)
		}
		if closes {
			vp.rescanGlobalRootObjects()
		}
		// Crashed vprocs cannot scan their own retired heaps; the leader
		// adopts them (proxies, frozen local data) so messages and proxied
		// objects they left behind survive the collection.
		vp.adoptCrashedHeaps()
	}

	// Close: parallel per-node chunk scanning until no unscanned chunks
	// remain anywhere. An open-only window ends here with the to-space
	// chunks still gray: the mark drains them between the windows.
	if closes {
		vp.globalScanLoop()
		// The scan is globally drained (globalScanLoop only returns once no
		// unscanned data remains anywhere), so forwarding targets are final:
		// repair the promotion-forwarding words before the barrier, while
		// the from-space headers are still intact. The leader does the same
		// for the retired heaps it adopted above.
		vp.repairForwarding()
		if leader {
			for _, dead := range rt.VProcs {
				if dead.crashed {
					dead.repairForwarding()
				}
			}
		}
	}
	g.scanDone.Arrive(vp.proc)

	if leader {
		if closes {
			vp.releaseFromSpace()
		} else {
			// Roots are black; the world restarts with the mark in flight.
			g.markStartAllocated = rt.Chunks.AllocatedWords
			rt.rouseLoopTops()
			g.marking = true
			g.pending = false
			d := vp.Now() - g.windowStart
			rt.Stats.SnapshotNs += d
			rt.emit(GCEvent{Kind: EvSnapshot, VProc: vp.ID, At: vp.Now(), Ns: d})
		}
	}
	g.finish.Arrive(vp.proc)
	vp.Stats.GlobalNs += vp.Now() - start
}

// releaseFromSpace is the leader's end of a closing window: it returns the
// old from-space chunks to the free-space chunk pool (node-affine), clears
// the cycle's flags and accounts the collection.
func (vp *VProc) releaseFromSpace() {
	rt := vp.rt
	g := &rt.global
	if rt.Cfg.Debug {
		for _, c := range rt.Chunks.Active() {
			if !c.FromSpace && c.Scan < c.Top {
				panic(fmt.Sprintf("core: to-space chunk r%d (node %d, owner %d) left unscanned: scan=%d top=%d",
					c.Region.ID, c.Node, c.Owner, c.Scan, c.Top))
			}
		}
		mustVerify(rt.VerifyTriColor(), "at the end of the global scan")
	}
	markEndAllocated := rt.Chunks.AllocatedWords
	for _, c := range g.fromChunks {
		rt.Chunks.Release(c)
		vp.advance(20)
	}
	g.fromChunks = nil
	g.pending, g.termPending, g.marking, g.scanning = false, false, false, false
	rt.Stats.GlobalGCs++
	// Active chunkage right after a full collection is the survived
	// set — the occupancy floor no amount of collecting gets below.
	rt.Stats.LastGlobalSurvivedWords = rt.Chunks.AllocatedWords
	rt.Stats.GlobalCopied += g.copied
	rt.Stats.GlobalNs += vp.Now() - g.startNs
	if rt.Cfg.ConcurrentGlobal {
		d := vp.Now() - g.windowStart
		rt.Stats.TermNs += d
		rt.updatePacer(markEndAllocated)
		rt.emit(GCEvent{Kind: EvTermination, VProc: vp.ID, At: vp.Now(), Ns: d})
		// Residual debt dies with the cycle: it paces assists against
		// this mark's gray set, which no longer exists.
		for _, o := range rt.VProcs {
			o.assistDebt = 0
		}
	}
	rt.emit(GCEvent{Kind: EvGlobalEnd, VProc: vp.ID, At: vp.Now(), Ns: vp.Now() - g.startNs, Words: g.copied})
	g.copied = 0
	if rt.Cfg.Debug {
		mustVerify(rt.VerifyHeap(), "after global GC")
	}
}

// globalForward copies a from-space global object into this vproc's
// to-space chunk and returns the new address. Local addresses and live
// to-space addresses pass through unchanged. Classification (forwardClass) is
// chargeless; the chunk fetch and the evacuation (globalCopy) each advance at
// their own instant.
func (vp *VProc) globalForward(a heap.Addr) heap.Addr {
	rt := vp.rt
	na, h, need := vp.forwardClass(a)
	if !need {
		return na
	}
	n := heap.HeaderLen(h)
	if n+1 > rt.Cfg.ChunkWords-1 {
		panic(fmt.Sprintf("core: object of %d words exceeds chunk size %d", n, rt.Cfg.ChunkWords))
	}
	if vp.curChunk == nil || !vp.curChunk.CanAlloc(n) {
		rt.getChunk(vp)
		// The chunk fetch advanced virtual time, so another scanner may
		// have evacuated this very object meanwhile (both held a
		// reference to it). Re-classify instead of copying blindly: a
		// second copy would overwrite the forwarding pointer and fork
		// the object's identity between the two to-space copies.
		na, h, need = vp.forwardClass(a)
		if !need {
			return na
		}
	}
	return vp.globalCopy(na, h, vp.curChunk)
}

// forwardClass classifies a pointer for global forwarding without charging:
// need is false for the pass-through cases (nil, live local-heap addresses,
// live to-space objects, already-forwarded objects), with na the final
// address; need is true when the object must be copied, with h its
// still-live from-space header.
//
// A local-heap address is resolved through promotion forwarding words before
// classification: when the referent was promoted, the reference's real
// target is the global copy, which may be from-space — leaving the
// reference pointing at the local forwarding word would hide the only live
// path to the object from the collector, condemning it with its chunk (the
// reference then dangles into reused from-space). Live local objects pass
// through untouched, so runs without stale promotion words are
// schedule-identical.
func (vp *VProc) forwardClass(a heap.Addr) (na heap.Addr, h uint64, need bool) {
	rt := vp.rt
	if a == 0 {
		return a, 0, false
	}
	r := rt.Space.Region(a.RegionID())
	for r.Kind != heap.RegionChunk {
		lw := r.At(a.Word() - 1)
		if heap.IsHeader(lw) {
			return a, 0, false // live local object: not the global collector's concern
		}
		a = heap.ForwardTarget(lw)
		r = rt.Space.Region(a.RegionID())
	}
	// Find the chunk: region IDs map 1:1 to chunk regions; the chunk
	// carries the from-space flag.
	c := rt.chunkOfRegion(r)
	if !c.FromSpace {
		return a, 0, false
	}
	h = rt.Space.Header(a)
	if !heap.IsHeader(h) {
		t := heap.ForwardTarget(h)
		if rt.Cfg.Debug {
			if tc := rt.Chunks.ChunkOf(t.RegionID()); tc != nil && tc.FromSpace {
				panic(fmt.Sprintf("core: forwarding target %v is itself from-space", t))
			}
		}
		return t, 0, false
	}
	return a, h, true
}

// globalCopy evacuates the from-space object at a (header h, read at
// classification time) into dst, which must have room, through copyObject,
// charges the copy and returns the new address.
func (vp *VProc) globalCopy(a heap.Addr, h uint64, dst *heap.Chunk) heap.Addr {
	rt := vp.rt
	na, c := vp.copyObject(a, h, dst, numa.AccessMemory)
	rt.global.copied += int64(heap.HeaderLen(h) + 1)
	if rt.Cfg.Debug {
		heap.ScanObject(rt.Space, rt.Descs, na, func(slot int, p heap.Addr) heap.Addr {
			if p != 0 {
				if p.RegionID() < 0 || p.RegionID() >= rt.Space.NumRegions() {
					panic(fmt.Sprintf("core: global copy of %v has garbage pointer %v in slot %d", a, p, slot))
				}
				if pr := rt.Space.Region(p.RegionID()); pr.Kind == heap.RegionLocal {
					panic(fmt.Sprintf("core: global copy of %v points into vproc %d local heap (slot %d)", a, pr.Owner, slot))
				}
			}
			return p
		})
	}

	// Global copies always move metered DRAM traffic on both sides, so
	// there is nothing to fuse: the charge advances at its exact instant
	// (the batched-charge contract only covers meterless transfers).
	vp.advance(c)
	return na
}

// globalScanRoots scans owner's roots and entire local heap for pointers into
// from-space (§3.4: "scans the vproc's roots and local heap, placing any
// objects pointed-to into this new to-space chunk"), on this vproc's clock:
// it forwards every site of heapSites, each copy its own charge, then charges
// the local-heap walk as a single streaming read (the maximal batch, not one
// charge per object). The owner is the vproc itself, or a crashed vproc whose
// retired heap the leader adopts.
//
// withNursery extends the local-heap walk over the live nursery
// [NurseryStart, Alloc): the concurrent collector's windows skip the
// minor/major collections the stop-the-world collector runs first, so nursery
// data is part of the root set there.
func (vp *VProc) globalScanRoots(owner *VProc, withNursery bool) {
	rt := vp.rt
	lh := owner.Local
	c := owner.heapSites(withNursery)
	for site := c.next(); site != nil; site = c.next() {
		c.store(site, vp.globalForward(*site))
	}
	walked := lh.OldTop - 1
	if withNursery {
		walked += lh.Alloc - lh.NurseryStart
	}
	node := rt.Space.NodeOf(heap.MakeAddr(lh.Region.ID, 1))
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, walked*8, numa.AccessCache))
}

// repairForwarding rewrites the promotion forwarding words of this vproc's
// local heap at the end of a global collection's scan. A promotion leaves a
// forwarding word in the local heap whose target is about to be condemned with
// its chunk: if the promoted object was evacuated (it was reachable), the word
// is re-aimed at the to-space copy, so later resolutions and heap walks never
// chase into from-space; if it was not (the object is garbage — every traced
// reference was resolved past the word by forwardClass), the word is
// neutralized into a dead raw header of the same size, keeping the heap
// walkable without referencing the released chunk. The repair is collector
// metadata maintenance folded into the scan: it reads only state the scan
// already touched and is not charged, so schedules are unchanged.
//
// Both heap areas are covered. The nursery is empty when the minor+major
// collections preceded the window; it holds live data (and possibly
// promotion forwarding words) under the concurrent collector, and in a
// crashed vproc's heap, frozen mid-mutation, that the leader repairs.
func (vp *VProc) repairForwarding() {
	lh := vp.Local
	vp.repairForwardingRange(1, lh.OldTop)
	vp.repairForwardingRange(lh.NurseryStart, lh.Alloc)
}

// repairForwardingRange rewrites the promotion forwarding words in local
// words [lo, hi); see repairForwarding for the protocol argument. It is the
// object walk's one rewriting client: a rewritten word keeps the extent the
// walk steps by.
func (vp *VProc) repairForwardingRange(lo, hi int) {
	rt := vp.rt
	region := vp.Local.Region
	for w := region.Walk(lo, hi); ; {
		obj, h, ok := w.Next()
		if !ok {
			return
		}
		if heap.IsHeader(h) {
			continue
		}
		t := heap.ForwardTarget(h)
		if c := rt.Chunks.ChunkOf(t.RegionID()); c != nil && !c.FromSpace {
			// The target is already a live to-space object: a
			// promotion that ran during the concurrent mark forwarded
			// straight into to-space. The word is correct as it
			// stands. (Stop-the-world every chunk is condemned before
			// any repair runs, so this arm never fires there.)
			continue
		}
		if th := rt.Space.Header(t); heap.IsHeader(th) {
			// Unevacuated: dead with its chunk.
			rt.Space.SetHeader(obj, heap.MakeHeader(heap.IDRaw, heap.HeaderLen(th)))
		} else {
			rt.Space.SetHeader(obj, heap.MakeForward(heap.ForwardTarget(th)))
		}
	}
}

// enqueueScan registers a to-space chunk as holding unscanned data.
func (rt *Runtime) enqueueScan(c *heap.Chunk) {
	if rt.Cfg.Debug {
		for n, l := range rt.global.scanByNode {
			for _, q := range l {
				if q == c {
					panic(fmt.Sprintf("core: chunk r%d double-enqueued on scan list %d (scan=%d top=%d owner=%d)",
						c.Region.ID, n, c.Scan, c.Top, c.Owner))
				}
			}
		}
		for _, vp := range rt.VProcs {
			if vp.scanningChunk == c {
				panic(fmt.Sprintf("core: chunk r%d enqueued while vproc %d is mid-object in it", c.Region.ID, vp.ID))
			}
		}
	}
	node := c.Node
	if !rt.Cfg.NodeLocalScan {
		node = 0 // ablation: one shared list
	}
	rt.global.scanByNode[node] = append(rt.global.scanByNode[node], c)
}

// globalScanLoop drains unscanned to-space data until none remains anywhere:
// drain everything reachable, then poll until the vprocs still draining their
// own current chunks have finished too.
func (vp *VProc) globalScanLoop() {
	for {
		vp.drainGray(math.MaxInt)
		if vp.rt.globalScanDrained() {
			return
		}
		vp.advance(vp.rt.Cfg.PollNs)
	}
}

// drainGray is the one gray-drain loop: the body of the closing window's scan
// (unbounded) and of the concurrent mark's assists (budgeted). It drains the
// vproc's own current chunk, then pending chunks from the scan lists
// (popScanChunk), each evacuation and chunk fetch its own engine charge, and
// stops at an object boundary once at least budget words have been scanned or
// a whole pass finds no gray data it can reach. Returns the words scanned.
func (vp *VProc) drainGray(budget int) int {
	scanned := 0
	// step scans one object of c and reports whether budget remains.
	step := func(c *heap.Chunk) bool {
		scanned += heap.HeaderLen(c.Region.Words[c.Scan]) + 1
		vp.scanChunkStep(c)
		return scanned < budget
	}
	for progressed := true; progressed; {
		progressed = false
		// Our own allocation chunk first: it is reachable by no other
		// vproc (current chunks are never on the scan lists). If it fills
		// mid-scan and is replaced, getChunk queues it for later completion.
		for c := vp.curChunk; c != nil && c.Scan < c.Top && vp.curChunk == c; {
			progressed = true
			if !step(c) {
				return scanned
			}
		}
		// Then one pending chunk, node-local first.
		if c := vp.popScanChunk(); c != nil {
			progressed = true
			for c.Scan < c.Top {
				if !step(c) {
					// Budget exhausted mid-chunk: hand the remainder back
					// to the lists (object boundary — scanChunkStep
					// completed).
					if c.Scan < c.Top {
						vp.rt.enqueueScan(c)
					}
					return scanned
				}
			}
		}
	}
	return scanned
}

// scanChunkStep scans the to-space object at the chunk's scan pointer,
// copying its from-space referents (which may fill the scanner's current
// chunk and swap it), and steps the scan pointer past it.
func (vp *VProc) scanChunkStep(c *heap.Chunk) {
	rt := vp.rt
	h := c.Region.Words[c.Scan]
	if !heap.IsHeader(h) {
		// To-space holds only copies and fresh allocations.
		panic(fmt.Sprintf("core: forwarding pointer in global to-space (vproc %d, chunk r%d node %d from=%v scan=%d top=%d owner=%d word=%#x target=%v)",
			vp.ID, c.Region.ID, c.Node, c.FromSpace, c.Scan, c.Top, c.Owner, h, heap.ForwardTarget(h)))
	}
	vp.scanningChunk = c
	heap.ScanObject(rt.Space, rt.Descs, heap.MakeAddr(c.Region.ID, c.Scan+1), func(_ int, p heap.Addr) heap.Addr {
		return vp.globalForward(p)
	})
	vp.scanningChunk = nil
	c.Scan += heap.HeaderLen(h) + 1
	// getChunk defers the re-enqueue of a chunk replaced while this very
	// scan was stepping through it.
	if vp.deferredEnqueue {
		vp.deferredEnqueue = false
		if c.Scan < c.Top {
			rt.enqueueScan(c)
		}
	}
}

// popScanChunk takes a pending chunk from the vproc's own node's list,
// falling back to other nodes' lists only when that is empty, and charges the
// local or the remote synchronization. A chunk homed on another node than
// the vproc's counts in CrossNodeScanned, whichever list it came from: under
// node-local lists only a fallback takes one, under the shared list
// (nodeListFor) any pop may.
func (vp *VProc) popScanChunk() *heap.Chunk {
	rt := vp.rt
	g := &rt.global
	take := func(node int) *heap.Chunk {
		l := g.scanByNode[node]
		if len(l) == 0 {
			return nil
		}
		c := l[len(l)-1]
		g.scanByNode[node] = l[:len(l)-1]
		return c
	}
	c, sync := take(nodeListFor(rt, vp.Node)), int64(chunkSyncLocalNs)
	for n := 0; c == nil && n < len(g.scanByNode); n++ {
		// Cross-node fallback keeps the collection live when a node has
		// pending chunks but no vproc.
		c, sync = take(n), chunkSyncGlobalNs
	}
	if c == nil {
		return nil
	}
	if c.Node != vp.Node {
		rt.Stats.CrossNodeScanned++
	}
	vp.advance(sync)
	return c
}

// nodeListFor maps a vproc's node to its scan list, honoring the
// shared-list ablation.
func nodeListFor(rt *Runtime, node int) int {
	if !rt.Cfg.NodeLocalScan {
		return 0
	}
	return node
}

// globalScanDrained reports whether no unscanned to-space data remains.
func (rt *Runtime) globalScanDrained() bool {
	for _, l := range rt.global.scanByNode {
		if len(l) > 0 {
			return false
		}
	}
	for _, o := range rt.VProcs {
		if o.curChunk != nil && o.curChunk.Scan < o.curChunk.Top {
			return false
		}
	}
	return true
}

// chunkOfRegion finds the chunk owning a chunk region.
func (rt *Runtime) chunkOfRegion(r *heap.Region) *heap.Chunk {
	c := rt.Chunks.ChunkOf(r.ID)
	if c == nil {
		panic(fmt.Sprintf("core: region %d has no chunk", r.ID))
	}
	return c
}
