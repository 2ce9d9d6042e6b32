package core

import (
	"fmt"

	"repro/internal/heap"
)

// Step-driven global collection (the scan phase of §3.4, run inline).
//
// The stop-the-world scan is where all N vprocs interleave chunk-by-chunk:
// every copy, chunk fetch, and poll is its own engine charge, and with the
// direct (Advance-based) loops nearly every charge crosses the horizon and
// costs a goroutine handoff. The machines below are the direct collectors
// (global.go: globalScanRootsDirect, and globalScanLoopDirect over drainGray)
// in resumable form for vtime.Proc.StepWhile: each turn executes the direct
// code from one engine charge to the next — performing the same state
// mutations at the same point — and returns that charge. By the step
// contract the schedule is bit-identical (each turn runs at exactly the
// virtual instant its proc would have been scheduled); only the stack it
// runs on changes, so a 48-proc scan phase executes on a handful of
// goroutines.
//
// What is traversed is not transcribed: both styles walk the same cursors
// (traverse.go: heapSites for the root walk; heap.SlotCursor and
// beginChunkObject/endChunkObject for a to-space object). The twins differ
// only in how one site is forwarded — globalForward's Advances against
// forwardTurn/fwPend's turns — and that is what TestStepScanEquivalence
// compares.
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
// this turn's charge. site is nil when nothing is pending.
type fwPend struct {
	site     *heap.Addr
	p        heap.Addr
	newChunk *heap.Chunk
}

// forwardTurn runs one pointer site through the forwarding charges: it
// classifies the pointer and either completes chargelessly (charged=false,
// the site holding its final value) or issues this turn's charge
// (charged=true) — a copy when the destination fits, stored to the site in
// this same turn, else a chunk fetch recorded in pend for the next turn.
func forwardTurn(vp *VProc, site *heap.Addr, pend *fwPend) (d int64, charged bool) {
	rt := vp.rt
	p := *site
	np, h, need := vp.forwardClass(p)
	if !need {
		if np != p {
			*site = np
		}
		return 0, false
	}
	n := heap.HeaderLen(h)
	if n+1 > rt.Cfg.ChunkWords-1 {
		panic(fmt.Sprintf("core: object of %d words exceeds chunk size %d", n, rt.Cfg.ChunkWords))
	}
	if vp.curChunk == nil || !vp.curChunk.CanAlloc(n) {
		c, d := rt.getChunkStart(vp)
		*pend = fwPend{site: site, p: np, newChunk: c}
		return d, true
	}
	*site, d = vp.globalCopy(np, h, vp.curChunk)
	return d, true
}

// finish completes a pending forward: installs the fetched chunk, performs
// the copy and stores the new address to the site. The copy's charge is this
// turn's (copied=true) — unless another scanner evacuated the object during
// the fetch turn, in which case the site gets the forwarding target and the
// caller continues chargelessly (exactly the direct globalForward's
// re-classify after its getChunk advance).
func (pend *fwPend) finish(vp *VProc) (d int64, copied bool) {
	site, p, c := pend.site, pend.p, pend.newChunk
	*pend = fwPend{}
	vp.rt.getChunkFinish(vp, c)
	na, h, need := vp.forwardClass(p)
	if need {
		na, d = vp.globalCopy(na, h, vp.curChunk)
	}
	*site = na
	return d, need
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

	// Mid-object state (valid while scanning): the object's header and the
	// cursor over its pointer slots.
	scanning bool
	h        uint64
	slots    heap.SlotCursor

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
	if m.pend.site != nil {
		if d, copied := m.pend.finish(vp); copied {
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
				for site := m.slots.Next(); site != nil; site = m.slots.Next() {
					if d, charged := forwardTurn(vp, site, &m.pend); charged {
						return d, false
					}
				}
				m.scanning = false
				vp.endChunkObject(m.c, m.h)
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

// beginObject frames the object at m.c.Scan, as scanChunkStep does.
func (m *scanMachine) beginObject() {
	rt := m.vp.rt
	var obj heap.Addr
	obj, m.h = m.vp.beginChunkObject(m.c)
	m.slots = rt.Space.Slots(rt.Descs, obj, m.h)
	m.scanning = true
}

// --- The root-and-local-heap walk ----------------------------------------

// rootsMachine is globalScanRootsDirect in resumable form: the same cursor
// over the forwarding sites, one forwarding charge per turn, then the walk
// charge.
type rootsMachine struct {
	vp          *VProc
	sites       heapSites
	withNursery bool
	walked      bool // every site forwarded and the walk charged
	pend        fwPend
}

// globalScanRootsStep runs the root walk through the engine's inline-step
// path.
func (vp *VProc) globalScanRootsStep(withNursery bool) {
	m := &rootsMachine{vp: vp, withNursery: withNursery, sites: vp.heapSites(withNursery)}
	vp.proc.StepWhile(m.step)
}

func (m *rootsMachine) step() (int64, bool) {
	vp := m.vp
	if m.pend.site != nil {
		if d, copied := m.pend.finish(vp); copied {
			return d, false
		}
		// Evacuated by another scanner during our fetch turn: no copy
		// charge; continue to the next site within this turn.
	}
	if m.walked {
		return 0, true
	}
	for site := m.sites.next(); site != nil; site = m.sites.next() {
		if d, charged := forwardTurn(vp, site, &m.pend); charged {
			return d, false
		}
	}
	m.walked = true
	return vp.localWalkCost(vp, m.withNursery), false
}
