package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// VProc is a virtual processor (§2.2): an abstraction of a computational
// resource hosted by its own (virtual) thread pinned to a physical core,
// with a private local heap, a current global-heap chunk, and a local work
// queue.
type VProc struct {
	ID   int
	Core int
	Node int

	rt    *Runtime
	proc  *vtime.Proc
	Local *heap.LocalHeap

	// curChunk is the vproc's current global-heap chunk (§3.1).
	curChunk *heap.Chunk

	// The vproc's host-side GC roots are roots, queue, proxies,
	// resultTasks and parked; rootCursor.next (traverse.go) is the one
	// enumeration of them that every collector and verifier goes through.

	// roots is the shadow root stack. Workloads address roots by slot
	// index because collections rewrite the entries in place.
	roots []heap.Addr

	// queue is the vproc-local work deque; queued tasks' environments
	// are root sites.
	queue ring[*Task]

	// proxies holds the global-heap addresses of proxy objects owned by
	// this vproc; each address and each proxy's local slot is a root site.
	// proxyIdx maps each registered proxy to its index so dropProxy is
	// O(1) swap-remove instead of a linear scan (channel-heavy workloads
	// resolve proxies constantly). Global collections move proxies, and
	// the root enumeration rebuilds the map when a visitor did.
	proxies  []heap.Addr
	proxyIdx map[heap.Addr]int

	// parked holds this vproc's parked continuations — receive and
	// capacity continuations (channel.go) and timer continuations
	// (timer.go); their captured environments are root sites.
	parked []*rendezvous

	// timers is this vproc's deadline queue of parked timer continuations
	// (see timer.go). Serviced only by the owner, at safepoints; the
	// entries' rendezvous live on vp.parked, which is where the root
	// enumeration finds their environments.
	timers vtime.TimerQueue

	// pendingFaults holds fault-plan events whose deadlines have passed but
	// which have not executed yet: fireDueTimers can run inside engine step
	// functions where advancing and allocating are illegal, so it defers
	// fault bodies here and checkPreempt drains them on the vproc's own
	// goroutine (see faults.go). inFault guards re-entry — a stall fault
	// sleeping through checkPreempt must not start draining recursively.
	pendingFaults []*FaultEvent
	inFault       bool

	// resultTasks holds completed result-producing tasks this vproc
	// executed whose results have not been joined yet; each result is a
	// root site of this vproc.
	resultTasks []*Task

	// scanningChunk is the to-space chunk this vproc is currently
	// stepping through during a global collection; if it fills and is
	// replaced mid-step, the re-enqueue is deferred until the step
	// completes (deferredEnqueue) so no second vproc scans it
	// concurrently.
	scanningChunk   *heap.Chunk
	deferredEnqueue bool

	// heapBusy is the virtual lock coordinating thieves with local
	// collections: set while this vproc's local heap is being collected
	// or while a thief is promoting out of it.
	heapBusy bool

	// assistDebt accumulates the words this vproc allocated in the global
	// heap while a concurrent mark was in flight; the next safepoint's
	// mark assist scans proportionally (allocation-paced assists, the
	// GOGC discipline). Only nonzero under Config.ConcurrentGlobal.
	assistDebt int

	// crashed marks a vproc killed by a FaultCrash. A crashed vproc never
	// runs again: its proc ended Done, its queue/parked/timers are empty,
	// and its local heap is retired — frozen in place, still readable by
	// thieves resolving proxies, never collected again (see crash.go).
	crashed bool

	// running is the stack of tasks currently executing on this vproc
	// (nested through inline Join); a crash reports them all lost so the
	// outstanding-work count stays exact.
	running []*Task

	// owned lists channels registered to die with this vproc
	// (Channel.SetOwner): a crash fails them over to SendCrashed / nil
	// wakeups through the close-as-status protocol.
	owned []*Channel

	Stats VPStats

	// sw is the idle-sweep machine (see sweep), and dz its record while it
	// dozes (see doze.go).
	sw sweeper
	dz dozeState
	// prober is the dozer whose probe of this vproc's open queue comes
	// first, as of the doze proberEpoch numbers, and probeAt that probe's
	// clock (see findProber).
	prober      *VProc
	proberEpoch uint64
	probeAt     int64
	// firing is set while the idle sweep fires its due timers: their
	// continuations arm no prober (see enqueue).
	firing bool
}

// VPStats collects per-vproc runtime statistics.
type VPStats struct {
	MinorGCs        int
	MajorGCs        int
	Promotions      int
	MinorCopied     int64 // words
	MajorCopied     int64 // words
	PromotedWords   int64
	GCNs            int64 // virtual time in local collections
	GlobalNs        int64 // virtual time in global collections
	TasksRun        int64
	Steals          int64
	FailedSteals    int64
	AllocWords      int64
	ChunksRequested int64
	ChanSends       int64 // channel messages sent
	ChanRecvs       int64 // channel messages received
	ChanHandoffs    int64 // sends delivered directly to a parked receiver
	ChanSheds       int64 // sends shed (TrySend on full, or send on closed)
	TimersFired     int64 // timer continuations fired at their deadlines
	FaultsInjected  int64 // fault-plan events executed on this vproc
	FaultStallNs    int64 // virtual time spent in injected stalls
	FaultBurstWords int64 // words allocated by injected heap-pressure bursts
	AllocFailed     int64 // TryAlloc*/TryPromote failures after the emergency ladder
	EmergencyGCs    int64 // emergency collection ladders walked by this vproc
	Crashes         int   // 1 if this vproc was killed by a FaultCrash
	LostTasks       int64 // queued + in-flight tasks lost to the crash
	LostConts       int64 // parked continuations cancelled by the crash
	LostTimers      int64 // pending timer deadlines cancelled by the crash
	BarrierHits     int64 // write-barrier shades that evacuated an object (concurrent GC)
	BarrierNs       int64 // virtual time charged to write-barrier evacuations
	MarkAssistWords int64 // gray words scanned by this vproc's mark assists
	MarkAssistNs    int64 // virtual time spent in mark assists
}

// Runtimer accessors.

// Runtime returns the owning runtime.
func (vp *VProc) Runtime() *Runtime { return vp.rt }

// Now returns the vproc's virtual clock (ns).
func (vp *VProc) Now() int64 { return vp.proc.Now() }

// advance charges virtual time.
func (vp *VProc) advance(d int64) { vp.proc.Advance(d) }

// Compute charges ns of pure computation.
func (vp *VProc) Compute(ns int64) {
	if ns > 0 {
		vp.proc.Advance(ns)
	}
}

// --- Root stack ---------------------------------------------------------

// PushRoot registers a heap address as a GC root and returns its slot.
func (vp *VProc) PushRoot(a heap.Addr) int {
	vp.roots = append(vp.roots, a)
	return len(vp.roots) - 1
}

// Root reads a root slot (collections may have rewritten it).
func (vp *VProc) Root(slot int) heap.Addr { return vp.roots[slot] }

// SetRoot overwrites a root slot.
func (vp *VProc) SetRoot(slot int, a heap.Addr) { vp.roots[slot] = a }

// PopRoots discards the top n root slots.
func (vp *VProc) PopRoots(n int) {
	if n > len(vp.roots) {
		panic("core: PopRoots underflow")
	}
	vp.roots = vp.roots[:len(vp.roots)-n]
}

// --- Allocation ---------------------------------------------------------

// safepoint is executed before every allocation: it services pending
// preemption signals (global collection requests, §3.4 step 2), fires due
// timers, waits out a thief that is promoting from this heap, and runs
// minor/major collections until the requested payload fits in the nursery.
func (vp *VProc) safepoint(needWords int) {
	if vp.timers.Len() != 0 {
		vp.fireDueTimers()
	}
	g := &vp.rt.global
	for {
		vp.waitHeapIdle()
		if vp.Local.LimitZeroed() {
			vp.Local.RestoreLimit()
		}
		if g.pending || g.termPending {
			vp.participateGC()
			// A new signal can arrive at any time; re-check from
			// the top.
			continue
		}
		if g.marking {
			// Concurrent mark in flight: pay down the allocation-paced
			// assist debt before allocating more. The assist can drain
			// the mark and request termination; re-check from the top.
			vp.gcMarkPoint()
			if g.termPending {
				continue
			}
		}
		if vp.Local.CanAlloc(needWords) {
			return
		}
		vp.minorGC()
		// A minor collection triggers a major collection when the new
		// nursery falls below threshold or a global GC is pending
		// (§3.3); minorGC handles that. A global request arriving
		// during the collection re-zeroes the limit, so only a clean
		// post-collection failure means the object is too large.
		if !vp.Local.CanAlloc(needWords) && !vp.Local.LimitZeroed() && !g.pending {
			panic(fmt.Sprintf("core: object of %d words cannot fit vproc %d nursery (%d words); use smaller leaves",
				needWords, vp.ID, vp.Local.NurseryWords()))
		}
	}
}

// waitHeapIdle spins (in virtual time, through the engine's inline-step
// path) until no thief is promoting out of this vproc's heap. Every path
// that is about to collect — the allocation safepoint and the preemption
// service — must pass through it: a collection under an in-flight promotion
// moves the objects the promoter's addresses name.
func (vp *VProc) waitHeapIdle() {
	if !vp.heapBusy {
		return
	}
	// Span-safe: the spin reads heapBusy (written only by goroutine-bound
	// thieves, frozen during a window) and writes nothing.
	vp.proc.SpanWhile(func() (int64, bool) {
		if !vp.heapBusy {
			return 0, true
		}
		return spinNs, false
	}, nil, nil)
}

// bump is every allocator's body after its safepoint: it puts a zeroed n-word
// object in the nursery, fills it from raw and from the named root slots,
// counts it, and returns its address with the charge of initializing it (the
// fixed bump-and-init cost and the access cost, fused). Mutation first, then
// the charge: a direct form advances by it, a step returns it.
func (vp *VProc) bump(id uint16, n int, raw []uint64, rootSlots []int) (heap.Addr, int64) {
	a, p := vp.Local.BumpPayload(heap.MakeHeader(id, n))
	copy(p, raw)
	for i, s := range rootSlots {
		p[i] = uint64(vp.roots[s])
	}
	vp.Stats.AllocWords += int64(n + 1)
	// The node of the object's last word, as Space.NodeOf would find it.
	r := vp.Local.Region
	node := r.HomeNode
	if node < 0 {
		node = vp.rt.Pages.NodeOfWord(r.BasePage, vp.Local.Alloc-1)
	}
	return a, allocFixedNs + vp.rt.Machine.AccessCost(vp.Now(), vp.Core, node, (n+1)*8, numa.AccessCache)
}

// alloc is a direct allocator: safepoint, bump, one advance.
func (vp *VProc) alloc(id uint16, n int, raw []uint64, rootSlots []int) heap.Addr {
	vp.safepoint(n)
	a, c := vp.bump(id, n, raw, rootSlots)
	vp.advance(c)
	return a
}

// costAlloc is an allocator in cost form, for step functions (see RunSteps).
// It is the paper's allocation check (§3.1): when safepoint(n) would return
// at once having done nothing — no timer due, no thief in the heap, no
// collection requested or marking, and the object fits below the limit
// pointer, which a zeroed limit never does — it bumps and returns the charge.
// Otherwise it reports !ok with heap, meters and stats untouched (it counts
// the decline's reason in Runtime.StepDeclines), and the caller leaves its
// step function to call the direct form, which collects.
func (vp *VProc) costAlloc(id uint16, n int, raw []uint64, rootSlots []int) (heap.Addr, int64, bool) {
	g := &vp.rt.global
	d := &vp.rt.declines
	switch dl, armed := vp.timers.NextDeadline(); {
	case armed && dl <= vp.Now():
		d.Timer++
	case vp.heapBusy:
		d.Thief++
	case g.pending || g.termPending:
		d.GlobalGC++
	case g.marking:
		d.Mark++
	case !vp.Local.CanAlloc(n):
		d.Nursery++
	default:
		a, c := vp.bump(id, n, raw, rootSlots)
		return a, c, true
	}
	return 0, 0, false
}

// AllocRaw allocates a raw-data object with the given payload words.
func (vp *VProc) AllocRaw(payload []uint64) heap.Addr {
	return vp.alloc(heap.IDRaw, len(payload), payload, nil)
}

// CostAllocRaw is AllocRaw in cost form.
func (vp *VProc) CostAllocRaw(payload []uint64) (heap.Addr, int64, bool) {
	return vp.costAlloc(heap.IDRaw, len(payload), payload, nil)
}

// AllocRawN allocates a zeroed raw-data object of n words.
func (vp *VProc) AllocRawN(n int) heap.Addr { return vp.alloc(heap.IDRaw, n, nil, nil) }

// AllocVector allocates a vector-of-pointers object. The element addresses
// are taken from root slots (not raw addresses) because the safepoint may
// move them.
func (vp *VProc) AllocVector(rootSlots []int) heap.Addr {
	return vp.alloc(heap.IDVector, len(rootSlots), nil, rootSlots)
}

// CostAllocVector is AllocVector in cost form.
func (vp *VProc) CostAllocVector(rootSlots []int) (heap.Addr, int64, bool) {
	return vp.costAlloc(heap.IDVector, len(rootSlots), nil, rootSlots)
}

// AllocVectorN allocates a vector of n nil pointers.
func (vp *VProc) AllocVectorN(n int) heap.Addr { return vp.alloc(heap.IDVector, n, nil, nil) }

// RawField is one non-pointer field of a mixed object AllocMixed builds:
// payload word Off holds Word.
type RawField struct {
	Off  int
	Word uint64
}

// PtrField is one pointer field of a mixed object AllocMixed builds: payload
// word Off holds the address in root slot Slot, read after the safepoint
// (which may move it).
type PtrField struct {
	Off, Slot int
}

// AllocMixed allocates a mixed-type object with the given descriptor ID.
// raw supplies the non-pointer payload and ptrs the pointer fields; every
// other word is zero.
func (vp *VProc) AllocMixed(id uint16, raw []RawField, ptrs []PtrField) heap.Addr {
	d := vp.rt.Descs.Lookup(id)
	vp.safepoint(d.SizeWords)
	a, c := vp.bump(id, d.SizeWords, nil, nil)
	p := vp.rt.Space.Payload(a)
	for _, f := range raw {
		p[f.Off] = f.Word
	}
	for _, f := range ptrs {
		p[f.Off] = uint64(vp.roots[f.Slot])
	}
	vp.advance(c)
	return a
}

// --- Field access -------------------------------------------------------

// isOwnLocal reports whether the address lies in this vproc's local heap.
func (vp *VProc) isOwnLocal(a heap.Addr) bool {
	return a.RegionID() == vp.Local.Region.ID
}

// accessKind classifies a load target for the cost model: the vproc's own
// local heap is sized to fit L3 and is charged at cache cost when its pages
// are node-local.
func (vp *VProc) accessKind(a heap.Addr) numa.AccessKind {
	if vp.isOwnLocal(a) {
		return numa.AccessCache
	}
	return numa.AccessMemory
}

// Resolve follows forwarding pointers to the object's current address
// (heap.Space.Resolve): a mutator may hold a stale pointer to an object that
// was promoted (a forwarding pointer in the local heap). The real runtime
// never observes these because roots are rewritten, but workload code
// holding addresses across promotions resolves them.
func (vp *VProc) Resolve(a heap.Addr) heap.Addr { return vp.rt.Space.Resolve(a) }

// cachedBlockCharge is the charge of a streaming read of an n-word payload
// at unconditional cache cost (the meterless re-read model of
// ReadBlockCached), fused with ns of computation.
func (vp *VProc) cachedBlockCharge(n int, ns int64) int64 {
	t := vp.rt.Cfg.Topo
	return int64(t.CacheLat+float64(n*8)/t.CacheBW) + ns
}

// LoadWord reads payload word i of the object at a, charging a
// latency-bound access.
func (vp *VProc) LoadWord(a heap.Addr, i int) uint64 {
	w, c := vp.CostLoadWord(a, i)
	vp.advance(c)
	return w
}

// LoadPtr reads pointer field i of the object at a.
func (vp *VProc) LoadPtr(a heap.Addr, i int) heap.Addr {
	return heap.Addr(vp.LoadWord(a, i))
}

// ReadBlock charges a streaming read of the whole object payload (one
// latency plus bandwidth cost) and returns the payload slice.
//
// The returned slice aliases heap storage, taken after the charge: it is
// invalidated by the executing vproc's next allocation or any other call that
// charges virtual time. A collection may move the object and reuse its words,
// and even without one any bump into the object's region — a chunk's owner
// can bump while this vproc is charged — may replace the region's backing
// array (heap.Region), which leaves the slice detached: readable, but no
// longer the heap's words, so writes through it are lost. Config.Debug
// poisons a detached slice. Copy it out before any such call.
func (vp *VProc) ReadBlock(a heap.Addr) []uint64 {
	return vp.ReadBlockCompute(a, 0)
}

// ReadBlockCached is ReadBlock charged at cache cost regardless of where
// the object lives; workloads use it to model re-reads of data that is
// resident in the local cache hierarchy (e.g. the upper levels of the
// Barnes-Hut tree, or a matrix block being reused).
func (vp *VProc) ReadBlockCached(a heap.Addr) []uint64 {
	return vp.ReadBlockCachedCompute(a, 0)
}

// ReadBlockCompute is ReadBlock fused with Compute(ns): the access and the
// computation on the fetched data are charged in a single engine advance.
// Because the caller observes nothing between the two charges, the fusion
// is schedule-identical to ReadBlock followed by Compute — it only removes
// one rescheduling point — but costs half the engine interactions on hot
// read-then-compute loops. The slice is ReadBlock's.
func (vp *VProc) ReadBlockCompute(a heap.Addr, ns int64) []uint64 {
	_, c := vp.CostReadBlock(a, ns)
	vp.advance(c)
	// During the charge another vproc may have bumped into the object's
	// chunk, detaching a slice taken before it, or a mark assist may have
	// evacuated the object (Locate finds the copy).
	_, p, _ := vp.rt.Space.Locate(a)
	return p
}

// ReadBlockCachedCompute is ReadBlockCached fused with Compute(ns), with
// the same single-advance contract as ReadBlockCompute.
func (vp *VProc) ReadBlockCachedCompute(a heap.Addr, ns int64) []uint64 {
	_, c := vp.CostReadBlockCached(a, ns)
	vp.advance(c)
	_, p, _ := vp.rt.Space.Locate(a)
	return p
}

// ObjectLen returns the payload length of the object at a.
func (vp *VProc) ObjectLen(a heap.Addr) int { return vp.rt.Space.ObjectLen(vp.Resolve(a)) }

// --- Step-kernel access forms -------------------------------------------
//
// The Cost* accessors are the "compute cost, return duration" forms of the
// direct accessors above, for use inside step functions (RunSteps), where
// calling Advance is banned: a step observes the heap and returns the
// duration to charge, and the engine applies it. Each direct accessor is its
// cost form followed by one advance, so the two styles cannot drift. A cost
// form mutates contention meters, which is why it must be invoked only at
// the virtual instant the charge lands (i.e. from the step that returns it).
// Allocation has cost forms too, CostAllocRaw and CostAllocVector above: they
// are the fast path only, and decline (!ok) whenever the safepoint has work.

// RunSteps drives fn through the engine's inline-step path (see
// vtime.Proc.StepWhile): fn is invoked at every virtual instant this vproc
// is scheduled — possibly on another vproc's goroutine — and returns the
// duration to charge before its next turn, or done. fn must confine itself
// to observing and mutating simulation state; it must not call engine
// scheduling primitives (Compute, the direct allocators, Promote, channel
// operations, …), all of which advance or block internally.
func (vp *VProc) RunSteps(fn func() (d int64, done bool)) { vp.proc.StepWhile(fn) }

// CostLoadWord is LoadWord in cost form: it resolves a and returns payload
// word i together with the access charge.
func (vp *VProc) CostLoadWord(a heap.Addr, i int) (uint64, int64) {
	a, p, node := vp.rt.Space.Locate(a)
	c := vp.rt.Machine.AccessCost(vp.Now(), vp.Core, node, 8, vp.accessKind(a))
	return p[i], c
}

// CostLoadPtr is LoadPtr in cost form.
func (vp *VProc) CostLoadPtr(a heap.Addr, i int) (heap.Addr, int64) {
	w, c := vp.CostLoadWord(a, i)
	return heap.Addr(w), c
}

// CostReadBlock is ReadBlockCompute in cost form: it returns the payload
// slice (aliasing heap storage, same caveats as ReadBlock) and the fused
// read+compute charge.
func (vp *VProc) CostReadBlock(a heap.Addr, ns int64) ([]uint64, int64) {
	a, p, node := vp.rt.Space.Locate(a)
	return p, vp.rt.Machine.AccessCost(vp.Now(), vp.Core, node, len(p)*8, vp.accessKind(a)) + ns
}

// CostReadBlockCached is ReadBlockCachedCompute in cost form.
func (vp *VProc) CostReadBlockCached(a heap.Addr, ns int64) ([]uint64, int64) {
	_, p, _ := vp.rt.Space.Locate(a)
	return p, vp.cachedBlockCharge(len(p), ns)
}

// HeaderID returns the object ID of the object at a.
func (vp *VProc) HeaderID(a heap.Addr) uint16 {
	return heap.HeaderID(vp.rt.Space.Header(vp.Resolve(a)))
}
