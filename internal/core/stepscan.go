package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Step-driven global collection (the scan phase of §3.4, run inline).
//
// The stop-the-world scan is where all N vprocs interleave chunk-by-chunk:
// every copy, chunk fetch, and poll is its own engine charge, and with the
// direct (Advance-based) loops nearly every charge crosses the horizon and
// costs a goroutine handoff. The machines below are the direct loops
// (global.go: globalScanRootsDirect, globalScanLoopDirect) transcribed into
// resumable form for vtime.Proc.StepWhile: each turn executes the direct
// code from one engine charge to the next — performing the same state
// mutations at the same point — and returns that charge. By the step
// contract the schedule is bit-identical (each turn runs at exactly the
// virtual instant its proc would have been scheduled); only the stack it
// runs on changes, so a 48-proc scan phase executes on a handful of
// goroutines.
//
// The decomposition leans on three mutate/charge splits in the runtime:
//
//   - getChunkStart/getChunkFinish: a chunk fetch mutates the free lists
//     before its sync charge and installs vp.curChunk after it, so a fetch
//     spans two turns exactly as the direct getChunk spans its Advance.
//   - popScanChunkStart: the pending-list pop precedes its sync charge.
//   - forwardClass/globalCopy: classification is chargeless; the
//     evacuation mutates and charges in one turn.
//
// A from-space copy therefore costs one turn when the destination chunk has
// room, or two (fetch, then copy) when it must be replaced — the same two
// Advance instants the direct code produces.

// fwPend is the shared mid-forward state of the two machines: a copy whose
// destination chunk had to be fetched first. The fetch charge was returned
// last turn; the fresh chunk still needs installing, and the copy itself is
// this turn's charge.
type fwPend struct {
	active   bool
	p        heap.Addr
	h        uint64
	newChunk *heap.Chunk
}

// forwardTurn runs one pointer site through the forwarding charges: it
// classifies p and either completes chargelessly (charged=false, with na
// the final value to store) or issues this turn's charge (charged=true) —
// a copy when the destination fits (copied=true, na valid), else a chunk
// fetch recorded in pend for the next turn.
func forwardTurn(vp *VProc, p heap.Addr, pend *fwPend) (na heap.Addr, d int64, charged, copied bool) {
	rt := vp.rt
	np, h, need := vp.forwardClass(p)
	if !need {
		return np, 0, false, false
	}
	n := heap.HeaderLen(h)
	if n+1 > rt.Cfg.ChunkWords-1 {
		panic(fmt.Sprintf("core: object of %d words exceeds chunk size %d", n, rt.Cfg.ChunkWords))
	}
	if vp.curChunk == nil || !vp.curChunk.CanAlloc(n) {
		c, d := rt.getChunkStart(vp)
		pend.active = true
		pend.p, pend.h, pend.newChunk = np, h, c
		return 0, d, true, false
	}
	na, d = vp.globalCopy(np, h, vp.curChunk)
	return na, d, true, true
}

// finish completes a pending forward: installs the fetched chunk and
// performs the copy, whose charge the caller returns from this turn —
// unless another scanner evacuated the object during the fetch turn, in
// which case copied is false, na is the forwarding target, and the caller
// continues chargelessly (exactly the direct globalForward's re-classify
// after its getChunk advance).
func (pend *fwPend) finish(vp *VProc) (na heap.Addr, d int64, copied bool) {
	pend.active = false
	vp.rt.getChunkFinish(vp, pend.newChunk)
	pend.newChunk = nil
	na, h, need := vp.forwardClass(pend.p)
	if !need {
		return na, 0, false
	}
	na, d = vp.globalCopy(na, h, vp.curChunk)
	return na, d, true
}

// --- The parallel chunk-scan loop ----------------------------------------

type scanPhase int

const (
	scanSelect      scanPhase = iota // loop top: evaluate the own-chunk drain
	scanDrainOwn                     // draining m.c, bound from vp.curChunk
	scanPop                          // own drain done; try the pending lists
	scanDrainPopped                  // fully draining a popped chunk
	scanCheck                        // progress / drained / poll decision
)

// scanMachine is globalScanLoopDirect in resumable form.
type scanMachine struct {
	vp         *VProc
	phase      scanPhase
	c          *heap.Chunk // chunk being drained
	progressed bool

	// Mid-object state (valid while scanning): the object's payload, its
	// pointer-slot layout, and the cursor into it.
	scanning bool
	payload  []uint64
	offs     []int
	all      bool
	nSlots   int
	si       int
	objLen   int

	pend fwPend
}

// globalScanLoopStep runs the scan loop through the engine's inline-step
// path.
func (vp *VProc) globalScanLoopStep() {
	m := &scanMachine{vp: vp}
	vp.proc.StepWhile(m.step)
}

func (m *scanMachine) step() (int64, bool) {
	vp := m.vp
	rt := vp.rt
	if m.pend.active {
		na, d, copied := m.pend.finish(vp)
		m.payload[m.slotOff()] = uint64(na)
		m.si++
		if copied {
			return d, false
		}
		// The object was evacuated by another scanner during our fetch
		// turn: no copy charge; continue scanning within this turn.
	}
	for {
		switch m.phase {
		case scanSelect:
			// Direct loop top: re-bind the own chunk.
			m.progressed = false
			if c := vp.curChunk; c != nil && c.Scan < c.Top {
				m.progressed = true
				m.c = c
				m.beginObject()
				m.phase = scanDrainOwn
				continue
			}
			m.phase = scanPop

		case scanDrainOwn, scanDrainPopped:
			if m.scanning {
				if d, charged := m.scanSlots(); charged {
					return d, false
				}
				m.finishObject()
				if m.phase == scanDrainOwn && vp.curChunk != m.c {
					// The chunk filled mid-scan and was replaced;
					// getChunk queued it for later completion.
					m.c = nil
					m.phase = scanPop
					continue
				}
			}
			if m.c.Scan < m.c.Top {
				m.beginObject()
				continue
			}
			m.c = nil
			if m.phase == scanDrainOwn {
				m.phase = scanPop
			} else {
				m.phase = scanCheck
			}

		case scanPop:
			c, d := vp.popScanChunkStart()
			if c == nil {
				m.phase = scanCheck
				continue
			}
			m.c = c
			m.progressed = true
			m.phase = scanDrainPopped
			return d, false

		case scanCheck:
			if m.progressed {
				m.phase = scanSelect
				continue
			}
			if rt.globalScanDrained() {
				return 0, true
			}
			m.phase = scanSelect
			return rt.Cfg.PollNs, false
		}
	}
}

// slotOff maps the slot cursor to its payload offset.
func (m *scanMachine) slotOff() int {
	if m.all {
		return m.si
	}
	return m.offs[m.si]
}

// scanSlots processes pointer slots of the in-flight object until one needs
// a charge; charged=false means the object completed chargelessly.
func (m *scanMachine) scanSlots() (int64, bool) {
	vp := m.vp
	for m.si < m.nSlots {
		off := m.slotOff()
		p := heap.Addr(m.payload[off])
		na, d, charged, copied := forwardTurn(vp, p, &m.pend)
		if !charged {
			if na != p {
				m.payload[off] = uint64(na)
			}
			m.si++
			continue
		}
		if copied {
			m.payload[off] = uint64(na)
			m.si++
		}
		return d, true
	}
	return 0, false
}

// beginObject frames the object at m.c.Scan, exactly as scanChunkStep's
// head does before its ScanObject call.
func (m *scanMachine) beginObject() {
	vp := m.vp
	rt := vp.rt
	c := m.c
	h := c.Region.Words[c.Scan]
	if !heap.IsHeader(h) {
		panic(fmt.Sprintf("core: forwarding pointer in global to-space (vproc %d, chunk r%d node %d from=%v scan=%d top=%d owner=%d word=%#x target=%v)",
			vp.ID, c.Region.ID, c.Node, c.FromSpace, c.Scan, c.Top, c.Owner, h, heap.ForwardTarget(h)))
	}
	obj := heap.MakeAddr(c.Region.ID, c.Scan+1)
	vp.scanningChunk = c
	m.objLen = heap.HeaderLen(h)
	m.payload = rt.Space.Payload(obj)
	m.offs, m.all = heap.PtrLayout(rt.Descs, h)
	m.nSlots = len(m.offs)
	if m.all {
		m.nSlots = len(m.payload)
	}
	m.si = 0
	m.scanning = true
}

// finishObject is scanChunkStep's tail: bump the scan pointer and service a
// deferred re-enqueue of the chunk this very scan was stepping through.
func (m *scanMachine) finishObject() {
	vp := m.vp
	c := m.c
	vp.scanningChunk = nil
	c.Scan += m.objLen + 1
	m.scanning = false
	m.payload = nil
	if vp.deferredEnqueue {
		vp.deferredEnqueue = false
		if c.Scan < c.Top {
			vp.rt.enqueueScan(c)
		}
	}
}

// --- The root-and-local-heap walk ----------------------------------------

type rootsPhase int

const (
	rootsRoots     rootsPhase = iota // vp.roots[i]
	rootsQueue                       // queued task envs, top (oldest) first
	rootsProxies                     // proxy addresses, then their local slots
	rootsResults                     // unjoined task results
	rootsParked                      // parked receive continuations' envs
	rootsLocalWalk                   // every pointer slot of the local heap
	rootsFinal                       // the single fused local-walk charge
	rootsDone
)

// rootsMachine is globalScanRootsDirect in resumable form: a cursor over
// the forwarding sites (host root slots, then local-heap object slots),
// with the same chargeless bookkeeping between them.
type rootsMachine struct {
	vp    *VProc
	phase rootsPhase
	i, j  int

	// withNursery extends the local walk over [NurseryStart, Alloc) after
	// [1, OldTop) — the concurrent collector's STW windows run without the
	// preceding minor/major, so the nursery is live root data there.
	// nursery marks the walk's second span.
	withNursery bool
	nursery     bool

	// Local-walk state.
	scan    int
	inObj   bool
	payload []uint64
	offs    []int
	all     bool
	nSlots  int
	si      int
	objLen  int

	pend fwPend
}

// globalScanRootsStep runs the root walk through the engine's inline-step
// path.
func (vp *VProc) globalScanRootsStep(withNursery bool) {
	m := &rootsMachine{vp: vp, withNursery: withNursery}
	m.normalize()
	vp.proc.StepWhile(m.step)
}

func (m *rootsMachine) step() (int64, bool) {
	vp := m.vp
	rt := vp.rt
	if m.pend.active {
		na, d, copied := m.pend.finish(vp)
		m.siteStore(na)
		m.advanceCursor()
		if copied {
			return d, false
		}
		// Evacuated by another scanner during our fetch turn: no copy
		// charge; continue to the next site within this turn.
	}
	for {
		switch m.phase {
		case rootsFinal:
			// Charge the local-heap walk as a single streaming read:
			// the whole walk is one fused charge (the maximal batch),
			// not one per object.
			lh := vp.Local
			node := rt.Space.NodeOf(heap.MakeAddr(lh.Region.ID, 1))
			walked := lh.OldTop - 1
			if m.withNursery {
				walked += lh.Alloc - lh.NurseryStart
			}
			m.phase = rootsDone
			return rt.Machine.AccessCost(vp.Now(), vp.Core, node, walked*8, numa.AccessCache), false
		case rootsDone:
			return 0, true
		}
		p := m.siteLoad()
		na, d, charged, copied := forwardTurn(vp, p, &m.pend)
		if !charged {
			if na != p {
				m.siteStore(na)
			}
			m.advanceCursor()
			continue
		}
		if copied {
			m.siteStore(na)
			m.advanceCursor()
		}
		return d, false
	}
}

// siteLoad reads the pointer at the cursor.
func (m *rootsMachine) siteLoad() heap.Addr {
	vp := m.vp
	switch m.phase {
	case rootsRoots:
		return vp.roots[m.i]
	case rootsQueue:
		return vp.queue.at(m.i).env[m.j]
	case rootsProxies:
		if m.j == 0 {
			return vp.proxies[m.i]
		}
		return heap.Addr(vp.rt.Space.Payload(vp.proxies[m.i])[heap.ProxyLocalSlot])
	case rootsResults:
		return vp.resultTasks[m.i].result
	case rootsParked:
		return vp.parked[m.i].env[m.j]
	case rootsLocalWalk:
		off := m.si
		if !m.all {
			off = m.offs[m.si]
		}
		return heap.Addr(m.payload[off])
	}
	panic("core: rootsMachine.siteLoad with no site")
}

// siteStore writes the forwarded pointer back to the cursor's site.
func (m *rootsMachine) siteStore(na heap.Addr) {
	vp := m.vp
	switch m.phase {
	case rootsRoots:
		vp.roots[m.i] = na
	case rootsQueue:
		vp.queue.at(m.i).env[m.j] = na
	case rootsProxies:
		if m.j == 0 {
			vp.proxies[m.i] = na
		} else {
			vp.rt.Space.Payload(vp.proxies[m.i])[heap.ProxyLocalSlot] = uint64(na)
		}
	case rootsResults:
		vp.resultTasks[m.i].result = na
	case rootsParked:
		vp.parked[m.i].env[m.j] = na
	case rootsLocalWalk:
		off := m.si
		if !m.all {
			off = m.offs[m.si]
		}
		m.payload[off] = uint64(na)
	default:
		panic("core: rootsMachine.siteStore with no site")
	}
}

// advanceCursor bumps the innermost index past a completed site, then
// normalizes to the next site.
func (m *rootsMachine) advanceCursor() {
	switch m.phase {
	case rootsRoots, rootsResults:
		m.i++
	case rootsQueue, rootsParked:
		m.j++
	case rootsProxies:
		// Per proxy: first the proxy's own address, then its local
		// slot (the pre-global major collection may have left a
		// now-from-space global address there; only the owner sees
		// the slot, so the owner forwards it).
		if m.j == 0 {
			m.j = 1
		} else {
			m.j = 0
			m.i++
		}
	case rootsLocalWalk:
		m.si++
	}
	m.normalize()
}

// normalize advances the cursor to the next pointer site, performing the
// chargeless bookkeeping the direct walk does between charges: phase
// transitions, the proxy-index rebuild, and the local walk's object framing
// (skipping raw payloads and forwarded objects).
func (m *rootsMachine) normalize() {
	vp := m.vp
	rt := vp.rt
	for {
		switch m.phase {
		case rootsRoots:
			if m.i < len(vp.roots) {
				return
			}
			m.phase, m.i, m.j = rootsQueue, 0, 0
		case rootsQueue:
			if m.i < vp.queue.size() {
				if m.j < len(vp.queue.at(m.i).env) {
					return
				}
				m.i, m.j = m.i+1, 0
				continue
			}
			m.phase, m.i, m.j = rootsProxies, 0, 0
		case rootsProxies:
			if m.i < len(vp.proxies) {
				return
			}
			if vp.proxyIdx != nil {
				// The proxies moved; rebuild the address index.
				clear(vp.proxyIdx)
				for i, pa := range vp.proxies {
					vp.proxyIdx[pa] = i
				}
			}
			m.phase, m.i = rootsResults, 0
		case rootsResults:
			if m.i < len(vp.resultTasks) {
				return
			}
			m.phase, m.i, m.j = rootsParked, 0, 0
		case rootsParked:
			if m.i < len(vp.parked) {
				if m.j < len(vp.parked[m.i].env) {
					return
				}
				m.i, m.j = m.i+1, 0
				continue
			}
			m.phase, m.scan = rootsLocalWalk, 1
		case rootsLocalWalk:
			lh := vp.Local
			if m.inObj {
				if m.si < m.nSlots {
					return
				}
				m.inObj = false
				m.payload = nil
				m.scan += m.objLen + 1
				continue
			}
			limit := lh.OldTop
			if m.nursery {
				limit = lh.Alloc
			}
			if m.scan >= limit {
				if m.withNursery && !m.nursery {
					m.nursery = true
					m.scan = lh.NurseryStart
					continue
				}
				m.phase = rootsFinal
				return
			}
			h := lh.Region.At(m.scan)
			if !heap.IsHeader(h) {
				m.scan += rt.Space.ObjectLen(heap.ForwardTarget(h)) + 1
				continue
			}
			obj := heap.MakeAddr(lh.Region.ID, m.scan+1)
			m.objLen = heap.HeaderLen(h)
			m.payload = rt.Space.Payload(obj)
			m.offs, m.all = heap.PtrLayout(rt.Descs, h)
			m.nSlots = len(m.offs)
			if m.all {
				m.nSlots = len(m.payload)
			}
			m.si = 0
			m.inObj = true
		default:
			return
		}
	}
}
