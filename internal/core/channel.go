package core

import (
	"fmt"
	"slices"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// CML-style channels (§2.1: "language-level visible threads and synchronous
// message passing, providing a parallel implementation of Concurrent ML's
// concurrency primitives"). Channels are where object proxies earn their
// keep (§3.1 footnote 1): a send enqueues a *proxy* for the message rather
// than promoting the message up front. If the matching receive happens on
// the same vproc, the message never leaves the local heap; only a
// cross-vproc rendezvous forces the promotion.
//
// All channel state that refers to the heap lives IN the simulated global
// heap, where the collector can see it: a channel is a mixed-type record
// (count, head, tail) whose pending messages hang off a chain of queue
// nodes, every link a traced pointer. The record's address is registered as
// a global root, so global collections forward the record, the chain, and
// the message proxies together — an in-flight message survives any number
// of minor, major, and global collections. (The alternative — keeping the
// pending proxies in a host-side Go slice — breaks exactly there: the
// collector forwards the proxy through the owner's registry, but the
// untracked copy keeps naming the from-space chunk, which is zeroed and
// reused after the collection.)
//
// Host-side state on the Channel struct is restricted to things the
// collector never traces: the capacity bound and the rings of parked
// receivers and of senders waiting for capacity, whose continuations'
// environments are forwarded by their owning vproc's collections — never
// raw addresses.
//
// Every wait is a parked continuation (§2.3's unit of work): a receive —
// RecvThen, SelectThen, a step continuation, or the blocking Recv and
// Select — parks a task that a sender, a close or a timer queues on its
// owner once it has an outcome. A blocking form then joins that task, and a
// Send on a full mailbox joins the capacity continuation the next pop
// queues, so waiting is the scheduler loop's idle sweep, never a loop of
// its own.

// Channel record payload layout (mixed descriptor, registered once per
// runtime on first use).
const (
	// chanCountSlot holds the number of pending messages (raw).
	chanCountSlot = 0
	// chanHeadSlot points at the oldest queue node, or nil.
	chanHeadSlot = 1
	// chanTailSlot points at the newest queue node, or nil.
	chanTailSlot = 2
	// chanSizeWords is the record payload size.
	chanSizeWords = 3

	// Queue nodes are 2-word vectors: [message proxy, next node].
	qnodeMsgSlot   = 0
	qnodeNextSlot  = 1
	qnodeSizeWords = 2
)

// Channel is a mailbox channel carrying heap objects by proxy. The zero
// capacity means unbounded; a bounded channel (NewMailbox) blocks senders
// while full. Receives are FIFO over the pending chain.
type Channel struct {
	rt *Runtime
	// cap bounds the pending-message count; 0 means unbounded.
	cap int
	// addr is the channel record in the global heap, registered as a
	// global root (collections update it in place). It stays 0 until the
	// first operation so channels can be created before Run starts.
	addr heap.Addr
	// waiters is the FIFO ring of parked receivers, each with its index of
	// this channel in the receiver's select, and senders the FIFO ring of
	// capacity continuations of sends that found the mailbox full. Entries
	// hold no heap addresses, and each carries the generation of its
	// rendezvous, so an entry left behind by a wait that completed
	// elsewhere stays stale once the rendezvous is reused (see popLive).
	waiters, senders ring[waiter]
	// closed is set by Close and never cleared: every later operation
	// observes the close as a status (SendClosed, a nil receive) instead of
	// resurrecting the record.
	closed bool
	// crashed distinguishes a close forced by the owning vproc's crash from
	// an orderly Close: sends observe SendCrashed instead of SendClosed, so
	// failover policies can tell a retired replica from a drained one.
	crashed bool
	// ownedBy is the vproc whose crash retires this channel (SetOwner).
	ownedBy *VProc
}

// SendStatus is the outcome of a channel send — the recoverable-failure
// contract that lets overload-control code shed load instead of crashing.
type SendStatus int

const (
	// SendOK: the message was handed to a parked receiver or enqueued.
	SendOK SendStatus = iota
	// SendFull: TrySend on a bounded channel at capacity — the message was
	// shed (its proxy dropped) rather than waiting for a free slot.
	SendFull
	// SendClosed: the channel was closed, possibly while the send was in
	// flight — the message was dropped.
	SendClosed
	// SendCrashed: the channel's owning vproc (SetOwner) crashed — the
	// message was dropped. The close-as-status protocol is identical to
	// SendClosed; the distinct status lets routing layers treat a dead
	// replica differently from an orderly shutdown.
	SendCrashed
)

// String names the status for diagnostics.
func (s SendStatus) String() string {
	switch s {
	case SendOK:
		return "ok"
	case SendFull:
		return "full"
	case SendClosed:
		return "closed"
	case SendCrashed:
		return "crashed"
	}
	return fmt.Sprintf("SendStatus(%d)", int(s))
}

// NewChannel creates an unbounded channel (CML acceptor-queue style).
func (rt *Runtime) NewChannel() *Channel { return &Channel{rt: rt} }

// NewMailbox creates a bounded channel: Send blocks (in virtual time) while
// capacity messages are pending.
func (rt *Runtime) NewMailbox(capacity int) *Channel {
	if capacity < 1 {
		panic(fmt.Sprintf("core: mailbox capacity %d must be >= 1", capacity))
	}
	return &Channel{rt: rt, cap: capacity}
}

// channelDesc lazily registers the channel record descriptor.
func (rt *Runtime) channelDesc() uint16 {
	if rt.chanDesc == 0 {
		rt.chanDesc = rt.Descs.Register("channel", chanSizeWords, []int{chanHeadSlot, chanTailSlot})
	}
	return rt.chanDesc
}

// record returns the channel record's current address, allocating it in the
// global heap on first use. The record is pinned via the runtime's global
// roots, so its address is rewritten in place by global collections; between
// safepoints it is stable.
func (ch *Channel) record(vp *VProc) heap.Addr {
	if vp.rt != ch.rt {
		panic("core: channel used with a vproc of a different runtime")
	}
	if ch.closed {
		panic("core: record of a closed channel (callers must check closed first)")
	}
	if ch.addr == 0 {
		rt := ch.rt
		// The chunk reservation may advance time and hand control to
		// another vproc whose first operation on this same channel also
		// finds addr == 0 — without the re-check below, the loser would
		// clobber the winner's record and orphan its pending messages.
		dst := rt.globalAllocDst(vp, chanSizeWords)
		if ch.addr == 0 {
			a := dst.Bump(heap.MakeHeader(rt.channelDesc(), chanSizeWords))
			p := rt.Space.Payload(a)
			p[chanCountSlot], p[chanHeadSlot], p[chanTailSlot] = 0, 0, 0
			ch.addr = a
			rt.RegisterGlobalRoot(&ch.addr)
			// Charge only after the record is committed and visible.
			node := rt.Space.NodeOf(a)
			vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, (chanSizeWords+1)*8, numa.AccessMemory))
		}
	}
	return ch.addr
}

// Len reports the number of pending messages (diagnostic; uncharged).
func (ch *Channel) Len() int {
	if ch.addr == 0 {
		return 0
	}
	return int(ch.rt.Space.Payload(ch.addr)[chanCountSlot])
}

// Close closes the channel and releases its heap record: the global-root
// registration is removed and the pending chain's message proxies are
// deregistered from their senders, so the record, the chain, the proxies,
// and any unreceived payloads become garbage for the collections that
// follow. Without Close, every channel ever created stays live forever
// (dynamically created channels — e.g. one reply channel per request —
// would grow the root set and the global heap without bound).
//
// Close is permanent and observable as a *status*, never a crash: every
// parked receiver is woken with a nil message (Recv returns 0,
// RecvThen/SelectThen callbacks run with msg == 0), later receives return
// nil immediately, and sends (including sends already in flight or waiting
// for capacity when the close lands, e.g. from a fault plan) report
// SendClosed and drop their message. Unreceived pending messages are
// discarded. A close is a host-side event with no acting vproc, so nothing
// is charged — the woken side pays its normal wakeup costs.
func (ch *Channel) Close() {
	ch.closed = true
	// Wake every parked receiver with the close status, and every waiting
	// sender to observe it. A rendezvous also registered elsewhere (Select
	// over several channels, or a pending timeout) is claimed here exactly
	// like a delivery would, retiring its timer; stale ring entries (a
	// claimed rendezvous, or one reused since) are discarded by popLive.
	for w := popLive(&ch.waiters); w.r != nil; w = popLive(&ch.waiters) {
		w.r.claim(int(w.which), 0)
	}
	for w := popLive(&ch.senders); w.r != nil; w = popLive(&ch.senders) {
		w.r.claim(0, 0)
	}
	if ch.addr == 0 {
		return
	}
	rt := ch.rt
	// Deregister the proxies of unreceived messages from their senders:
	// each was registered at Send and would otherwise stay a GC root of
	// its owner (retaining the payload) for the life of the run, even
	// though the only path to it is this dying chain. Host-side and
	// chargeless.
	for _, proxy := range ch.PendingProxies() {
		if p := rt.Space.Payload(proxy); heap.ProxySlot(p) >= 0 {
			rt.VProcs[heap.ProxyOwner(p)].dropProxy(proxy)
		}
	}
	rt.unregisterGlobalRoot(&ch.addr)
	ch.addr = 0
}

// Closed reports whether Close has been called.
func (ch *Channel) Closed() bool { return ch.closed }

// SetOwner ties the channel's lifetime to a vproc: if the vproc crashes
// (FaultCrash), the channel is retired through the close-as-status protocol —
// parked receivers wake with nil messages and sends report SendCrashed. A
// channel without an owner survives any crash (its record lives in the global
// heap, which crashes never touch). Ownership is a failure-domain annotation,
// not a scheduling one; it must be set before Run starts or from the owning
// side, and at most once.
func (ch *Channel) SetOwner(vp *VProc) {
	if vp.rt != ch.rt {
		panic("core: channel owned by a vproc of a different runtime")
	}
	if ch.ownedBy != nil {
		panic(fmt.Sprintf("core: channel already owned by vproc %d", ch.ownedBy.ID))
	}
	ch.ownedBy = vp
	vp.owned = append(vp.owned, ch)
}

// Owner returns the vproc the channel is tied to, or nil.
func (ch *Channel) Owner() *VProc { return ch.ownedBy }

// crashClose retires the channel on its owner's crash. A Close that landed at
// an earlier instant — or at the same instant but earlier in engine order —
// wins: the status was already delivered exactly once, and the crash adds
// nothing (the record is gone, the waiters were popped). Otherwise this is a
// Close whose observable status is SendCrashed.
func (ch *Channel) crashClose() {
	if ch.closed {
		return
	}
	ch.crashed = true
	ch.Close()
}

// failStatus is the status a shedding send reports on a dead channel.
func (ch *Channel) failStatus() SendStatus {
	if ch.crashed {
		return SendCrashed
	}
	return SendClosed
}

// PendingProxies returns the addresses of the pending messages' proxies in
// FIFO order; nothing is charged and no proxy is consumed (Close walks the
// dying chain with it; otherwise a diagnostic for tests and debugging).
// During a concurrent mark the chain can mix from-space nodes with evacuated
// copies; each link is resolved so the walk reads live copies (registered
// proxies are already to-space, but the node slots may still name their old
// addresses).
func (ch *Channel) PendingProxies() []heap.Addr {
	if ch.addr == 0 {
		return nil
	}
	rt := ch.rt
	var out []heap.Addr
	p := rt.Space.Payload(ch.addr)
	for n := rt.Space.Resolve(heap.Addr(p[chanHeadSlot])); n != 0; {
		np := rt.Space.Payload(n)
		out = append(out, rt.Space.Resolve(heap.Addr(np[qnodeMsgSlot])))
		n = rt.Space.Resolve(heap.Addr(np[qnodeNextSlot]))
	}
	return out
}

// Send publishes the object held in the sender's root slot. The message is
// wrapped in a proxy: no promotion happens yet. If a receiver is parked on
// the channel the proxy is handed to it directly (the rendezvous); otherwise
// it is enqueued on the heap-resident pending chain. On a full bounded
// channel Send waits for a slot: it parks a capacity continuation and joins
// it (see awaitCapacity), then probes again.
// Send never panics on a racing Close: a close landing before or during the
// send drops the message and reports SendClosed.
func (ch *Channel) Send(vp *VProc, slot int) SendStatus {
	return ch.send(vp, slot, false)
}

// TrySend is the non-blocking, load-shedding form of Send: where Send would
// wait for a bounded channel's capacity slot, TrySend drops the message and
// reports SendFull — the admission-control primitive (a full mailbox is the
// queue-depth signal overload policies act on). On an unbounded channel it
// is equivalent to Send.
func (ch *Channel) TrySend(vp *VProc, slot int) SendStatus {
	return ch.send(vp, slot, true)
}

// send is the shared body of Send and TrySend: its step form run direct,
// with the blocking operations its cost form declines (the record's first
// allocation, a chunk fetch, a full mailbox's wait) done in place, and an
// advance per charge. On the SendOK path it is charge-for-charge identical
// to the historical Send; the closed checks are free host-side observations.
func (ch *Channel) send(vp *VProc, slot int, try bool) SendStatus {
	o := SendOp{ch: ch, slot: slot, try: try}
	for !vp.directTurn(o.Step(vp, true)) {
	}
	return o.status
}

// SendOp is a Send in step form, for the turns of a step task: Begin, then
// Step at every turn until it reports StepDone. Each Step is the segment of
// Send up to its next charge, which it returns instead of advancing. Unless
// direct, Step declines — touching nothing — wherever Send would allocate the
// channel's record, fetch a chunk for the message proxy or the queue node, or
// wait on a full mailbox; direct, it does those in place. Send itself is Step
// run direct, so the two forms share one body.
type SendOp struct {
	ch     *Channel
	slot   int       // the message's root slot
	try    bool      // TrySend: shed instead of waiting for capacity
	phase  int8      // the segment the next Step runs
	ps     int       // the proxy's root slot, once pushed
	pa     heap.Addr // the proxy between its bump and its registration
	rec    heap.Addr // the record as of the probe
	status SendStatus
}

// Send phases: the proxy's bump, its registration, the probe of the record
// (the retry loop's top), the observation after the probe, and the end.
const (
	sendStart int8 = iota
	sendProxied
	sendProbe
	sendProbed
	sendDone
)

// Begin starts a Send of the object in root slot slot on ch.
func (o *SendOp) Begin(ch *Channel, slot int) { *o = SendOp{ch: ch, slot: slot} }

// Step runs the send's next segment; direct says whether it may block.
// Every observe-act pair is advance-free: the probe charge (and, direct, the
// queue node's chunk request) may hand control to other vprocs, so the
// closed flag, the parked-receiver check and the capacity check are re-run
// after any advance, and the final commit (bump + link + count) is a single
// segment.
func (o *SendOp) Step(vp *VProc, direct bool) (int64, StepStatus) {
	ch, rt := o.ch, o.ch.rt
	for {
		switch o.phase {
		case sendStart:
			if ch.closed {
				vp.Stats.ChanSheds++
				o.status = ch.failStatus()
				return 0, StepDone
			}
			if ch.addr == 0 {
				if !direct {
					rt.declines.Record++
					return 0, StepDecline
				}
				ch.record(vp)
			}
			// The proxy rides in a root slot for the duration: the
			// bounded-full wait runs the scheduler loop, which can
			// participate in a global collection that moves the proxy — a
			// raw Go copy of the address would go stale (the exact bug class
			// heap-resident channels exist to fix).
			pa, c, ok := vp.proxyBump(o.slot, direct)
			if !ok {
				return 0, StepDecline
			}
			o.pa, o.phase = pa, sendProxied
			return c, StepCharge
		case sendProxied:
			vp.registerProxy(o.pa)
			o.ps = vp.PushRoot(o.pa)
			vp.Stats.ChanSends++
			o.phase = sendProbe
		case sendProbe:
			o.rec = ch.addr // collections update the registered root in place
			if ch.closed || o.rec == 0 {
				return o.shed(vp, ch.failStatus())
			}
			o.phase = sendProbed
			return rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(o.rec), 16, numa.AccessMemory), StepCharge
		case sendProbed:
			if ch.closed {
				// Closed during the probe charge: rec is a stale snapshot of
				// a dead record — committing through it would lose the
				// message silently.
				return o.shed(vp, ch.failStatus())
			}
			// Hand off to a parked receiver only while the pending chain is
			// empty: a waiter can coexist with pending messages (a Select
			// registers before it probes the chains), and handing it the NEW
			// message would overtake the queued ones, breaking FIFO. With a
			// non-empty chain the waiter's own probe finds the head.
			if rt.Space.Payload(o.rec)[chanHeadSlot] == 0 {
				if c, ok := ch.handoff(vp, o.ps); ok {
					o.phase = sendDone
					return c, StepCharge
				}
			}
			if ch.cap > 0 && int(rt.Space.Payload(o.rec)[chanCountSlot]) >= ch.cap {
				if o.try {
					return o.shed(vp, SendFull)
				}
				if !direct {
					rt.declines.Mailbox++
					return 0, StepDecline
				}
				ch.awaitCapacity(vp)
				o.phase = sendProbe
				continue
			}
			// Reserve chunk room for the queue node; the request may advance
			// (chunk-pool synchronization), so a receiver may have parked or
			// another sender may have taken the last capacity slot meanwhile
			// — re-check everything before committing.
			if !direct && !vp.chunkRoom(qnodeSizeWords) {
				rt.declines.Chunk++
				return 0, StepDecline
			}
			dst := rt.globalAllocDst(vp, qnodeSizeWords)
			rec := ch.addr
			if ch.closed || rec == 0 {
				return o.shed(vp, ch.failStatus())
			}
			p := rt.Space.Payload(rec)
			if heap.Addr(p[chanHeadSlot]) == 0 {
				if c, ok := ch.handoff(vp, o.ps); ok {
					o.phase = sendDone
					return c, StepCharge
				}
			}
			if ch.cap > 0 && int(p[chanCountSlot]) >= ch.cap {
				if o.try {
					return o.shed(vp, SendFull)
				}
				o.phase = sendProbe
				continue
			}
			// Commit: bump the node and link it, with no advance until the
			// queue is consistent. The record may share dst's chunk, whose
			// window the bump can grow: p is taken again after it.
			nd := dst.Bump(heap.MakeHeader(heap.IDVector, qnodeSizeWords))
			p = rt.Space.Payload(rec)
			np := rt.Space.Payload(nd)
			np[qnodeMsgSlot] = uint64(vp.Root(o.ps))
			np[qnodeNextSlot] = 0
			vp.PopRoots(1)
			// Resolve the tail in the commit's own segment: during a concurrent
			// mark an assist may have evacuated the tail node, and the record's
			// slot still names the from-space copy — the link must land in the
			// live copy or the message is lost. Chargeless, and the identity
			// outside a mark.
			tail := vp.Resolve(heap.Addr(p[chanTailSlot]))
			linkNode := rt.Space.NodeOf(rec)
			if tail != 0 {
				rt.Space.Payload(tail)[qnodeNextSlot] = uint64(nd)
				linkNode = rt.Space.NodeOf(tail)
			} else {
				p[chanHeadSlot] = uint64(nd)
			}
			p[chanTailSlot] = uint64(nd)
			p[chanCountSlot]++
			// One fused charge: node init, the link store, and the record
			// writeback. Nothing is observable between those stores.
			o.phase = sendDone
			return rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(nd), (qnodeSizeWords+1)*8, numa.AccessMemory) +
				rt.Machine.AccessCost(vp.Now(), vp.Core, linkNode, 8, numa.AccessMemory) +
				rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 24, numa.AccessMemory), StepCharge
		case sendDone:
			o.status = SendOK
			return 0, StepDone
		}
	}
}

// handoff completes an in-flight send as a rendezvous if a receiver is parked:
// the proxy riding root slot ps (the top slot) goes straight to the oldest
// unclaimed waiter instead of the pending chain. It returns the sender's
// charge, one vproc signal.
func (ch *Channel) handoff(vp *VProc, ps int) (int64, bool) {
	w := popLive(&ch.waiters)
	if w.r == nil {
		return 0, false
	}
	vp.Stats.ChanHandoffs++
	proxy := vp.Root(ps)
	vp.PopRoots(1)
	w.r.claim(int(w.which), proxy)
	return signalVProcNs, true
}

// awaitCapacity waits, on a full mailbox, until a slot may be free: it parks
// a capacity continuation on the channel and joins it. The next pop, a Close
// or the owner's crash queues every waiting sender's (a continuation with no
// message); each sender then probes again, since another may take the slot
// first.
// Observing the mailbox full and parking are one advance-free segment, so
// no pop falls between them.
func (ch *Channel) awaitCapacity(vp *VProc) {
	r := vp.parkResult()
	ch.senders.pushBottom(r.waiter(0))
	vp.JoinResult(r.task)
}

// shed abandons the in-flight send, reporting why: the message proxy riding
// root slot ps is deregistered from this vproc and the slot popped, so the
// payload's only send-side retainer disappears and the message becomes
// ordinary local garbage. ps is the top root slot at every shed site.
func (o *SendOp) shed(vp *VProc, st SendStatus) (int64, StepStatus) {
	proxy := vp.Root(o.ps)
	vp.PopRoots(1)
	vp.dropProxy(proxy)
	vp.Stats.ChanSheds++
	o.status, o.phase = st, sendDone
	return 0, StepDone
}

// popPending unlinks the head queue node and returns its message proxy; the
// caller has already observed head != 0 with no intervening advance.
func (ch *Channel) popPending(vp *VProc, head heap.Addr) heap.Addr {
	proxy, c := ch.costPopPending(vp, head)
	vp.advance(c)
	return proxy
}

// costPopPending is popPending in cost form: the unlink, and its charge.
func (ch *Channel) costPopPending(vp *VProc, head heap.Addr) (heap.Addr, int64) {
	rt := ch.rt
	rec := ch.addr
	p := rt.Space.Payload(rec)
	// The head slot can name a from-space copy during a concurrent mark
	// (the record's links are only healed at mark termination); a sender
	// that linked a successor after the node's evacuation wrote it into the
	// to-space copy, so the read must go through the live copy too.
	head = vp.Resolve(head)
	np := rt.Space.Payload(head)
	proxy := heap.Addr(np[qnodeMsgSlot])
	next := heap.Addr(np[qnodeNextSlot])
	p[chanHeadSlot] = uint64(next)
	if next == 0 {
		p[chanTailSlot] = 0
	} else {
		// During a concurrent mark the successor link just read may be a
		// from-space address (the node was unscanned) now stored in a
		// possibly-black record; mark the record for the termination
		// window's rescan instead of shading here, which would advance
		// mid-commit.
		vp.gcDirtyRoot(rec)
	}
	p[chanCountSlot]--
	// Every waiting sender probes for the slot freed: one woken alone could
	// spend its wake on a handoff, or die with its vproc, and strand the rest.
	for w := popLive(&ch.senders); w.r != nil; w = popLive(&ch.senders) {
		w.r.claim(0, 0)
	}
	// Node read plus record writeback, fused (the node itself becomes
	// garbage for the next global collection).
	return proxy, rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(head), qnodeSizeWords*8, numa.AccessMemory) +
		rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 24, numa.AccessMemory)
}

// TryRecv receives a message if one is pending, resolving the proxy: if the
// message was sent by this vproc it stays local; otherwise it is promoted
// out of the sender's heap on demand. Returns (0, false) when empty.
func (ch *Channel) TryRecv(vp *VProc) (heap.Addr, bool) {
	if ch.addr == 0 {
		return 0, false
	}
	rt := ch.rt
	rec := ch.record(vp)
	// Charge the probe, then observe.
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 16, numa.AccessMemory))
	head := heap.Addr(rt.Space.Payload(rec)[chanHeadSlot])
	if head == 0 {
		return 0, false
	}
	proxy := ch.popPending(vp, head)
	vp.Stats.ChanRecvs++
	return vp.consumeProxy(proxy), true
}

// Recv blocks (in virtual time) until a message arrives. An empty channel
// parks a continuation whose task returns the message (parkResult) on the
// waiter ring, and Recv joins that task; the next Send hands its proxy
// directly to the continuation (the rendezvous) instead of touching the
// pending chain. The join runs the scheduler loop — tasks, steals, global
// collections, and a doze while nothing can happen — so a channel wait
// cannot stall the stop-the-world protocol, and one that nothing can ever
// answer ends the run with the engine's deadlock panic. On a closed channel
// — or if the channel closes during the wait — Recv returns 0.
//
// The wait runs queued tasks, so a Recv whose message can only be produced
// by a task *below it on this vproc's own stack* cannot complete; deep
// nested topologies should use RecvThen/SelectThen, which park a
// continuation task instead of a stack frame.
func (ch *Channel) Recv(vp *VProc) heap.Addr {
	if a, ok := ch.TryRecv(vp); ok {
		return a
	}
	if ch.closed {
		return 0
	}
	r := vp.parkResult()
	ch.waiters.pushBottom(r.waiter(0))
	return vp.JoinResult(r.task)
}

// Select receives from whichever of the channels first has a message,
// returning the channel's index and the resolved message: selectProbe over a
// continuation in result form, then a join of its task. Pending messages are
// taken in argument order; otherwise the continuation stays registered on
// every channel and the first Send claims it (stale registrations are
// skipped lazily by later sends). A closed channel delivers immediately:
// Select returns its index and a nil message. The same stack-nesting caveat
// as Recv applies; SelectThen is the continuation form.
func (vp *VProc) Select(chans ...*Channel) (int, heap.Addr) {
	r := vp.parkResult()
	vp.selectProbe(chans, r)
	msg := vp.JoinResult(r.task)
	return int(r.task.which), msg
}

// RecvThen registers a continuation for the channel's next message: when it
// arrives (possibly immediately), fn runs as a task on this vproc's queue
// with the captured env and the resolved message. Unlike Recv, nothing
// blocks — the parked continuation is a task, not a stack frame, so
// arbitrarily deep request/response topologies cannot wedge the scheduler.
func (ch *Channel) RecvThen(vp *VProc, env []heap.Addr, fn func(vp *VProc, env Env, msg heap.Addr)) {
	vp.SelectThen([]*Channel{ch}, env, func(vp *VProc, e Env, _ int, msg heap.Addr) {
		fn(vp, e, msg)
	})
}

// SelectThen is the continuation form of Select: fn runs as a task once any
// of the channels delivers, receiving the winning channel's index and the
// resolved message. The captured env addresses are GC roots of this vproc
// while the continuation is parked (they are forwarded by every collection,
// exactly like a queued task's environment).
func (vp *VProc) SelectThen(chans []*Channel, env []heap.Addr, fn func(vp *VProc, env Env, which int, msg heap.Addr)) {
	vp.selectProbe(chans, vp.park(env, fn))
}

// park registers a continuation with this vproc and returns its rendezvous,
// for a select's channels (SelectThen), a timer (AtThen) or both
// (SelectThenTimeout) to claim: fn runs as a task on this vproc's queue with
// the captured env, the winning index and the resolved message.
func (vp *VProc) park(env []heap.Addr, fn func(vp *VProc, env Env, which int, msg heap.Addr)) *rendezvous {
	p := newContTask()
	t := &p.Task
	if len(env) > 0 {
		t.env = make([]heap.Addr, len(env)+1)
		copy(t.env, env)
	}
	t.Fn = func(vp *VProc, e Env) {
		msg := vp.received(e.Get(vp, e.n-1))
		fn(vp, Env{base: e.base, n: e.n - 1}, int(t.which), msg)
	}
	return vp.parkTask(p)
}

// parkSteps is park for a continuation in step form.
func (vp *VProc) parkSteps(c StepCont) *rendezvous { return vp.parkTask(vp.rt.stepContTask(c)) }

// parkResult is park for a continuation in result form, which a blocking
// receive (or a send waiting for capacity) joins: its task returns the
// resolved message, 0 for none. A thief that steals the task runs it to its
// end with no crash site on the way (crashes land at checkPreempt), so the
// join of a live owner never finds it lost.
func (vp *VProc) parkResult() *rendezvous {
	p := newContTask()
	p.resFn = receiveResult
	return vp.parkTask(p)
}

func receiveResult(vp *VProc, e Env) heap.Addr { return vp.received(e.Get(vp, 0)) }

// contTask is a parked continuation's task and its rendezvous as one object;
// backing is a one-entry env (a result or step continuation's, or a closure's
// that captured nothing).
type contTask struct {
	Task
	rv      rendezvous
	backing [1]heap.Addr
}

// newContTask returns a closure or result continuation's task, which serves
// one wait: only step tasks are recycled.
func newContTask() *contTask {
	p := new(contTask)
	p.env, p.rv.task, p.rv.timer.Data = p.backing[:], &p.Task, &p.rv
	return p
}

// parkTask parks the continuation whose task is p's. Every form's task is
// built when it parks, and the last entry of its env is the slot complete
// delivers the message's proxy into. The continuation is outstanding work
// from this instant — the runtime must not quiesce while it is parked — and
// the rest of its env is rooted (vp.parked) before any advance.
func (vp *VProc) parkTask(p *contTask) *rendezvous {
	p.owner = vp.ID
	r := &p.rv
	r.owner = vp
	vp.rt.outstanding++
	vp.parked = append(vp.parked, r)
	return r
}

// received resolves a delivered message proxy for the receiving vproc and
// counts the receive; a nil proxy (a close, a timeout) is no message.
func (vp *VProc) received(proxy heap.Addr) heap.Addr {
	if proxy == 0 {
		return 0
	}
	msg := vp.consumeProxy(proxy)
	vp.Stats.ChanRecvs++
	return msg
}

// selectProbe is the one registration and probe of every select — Select,
// SelectThen and SelectThenTimeout: SelectOp run direct.
func (vp *VProc) selectProbe(chans []*Channel, r *rendezvous) {
	var o SelectOp
	o.begin(chans, r)
	for !vp.directTurn(o.Step(vp, true)) {
	}
}

// SelectOp is a select's registration and probe in step form, for the turns
// of a step task: Begin parks a continuation and registers it, then Step at
// every turn until it reports StepDone. It never declines: the probes read
// records that already exist, and the pop allocates nothing.
//
// The rendezvous is registered on every channel BEFORE the pending chains are
// probed: a Send during one channel's probe charge then either sees the
// waiter (and delivers) or enqueued before registration — in which case the
// probe finds it. Probing first would open a lost-wakeup window: a message
// enqueued on an already-probed channel while a later probe's advance runs
// would strand the parked waiter forever.
//
// The probe walks the chains in argument order and completes the rendezvous
// with the first pending message (or the first closed channel's nil) exactly
// as a sender or a close would have: its task is queued. No charge separates
// the claim from the pop, so no delivery (or timer fire) can interleave; if a
// sender delivered during a probe charge, the walk ends (answered). The op
// keeps the rendezvous' generation, because a step continuation's wait
// completed during a charge can end, and its step task and rendezvous serve
// another park, before the next segment.
type SelectOp struct {
	chans []*Channel
	r     *rendezvous
	gen   uint32    // r's generation when it parked
	i     int       // the channel probed next
	rec   heap.Addr // its record, as of the probe
	proxy heap.Addr // the popped message, during the pop's charge
	phase int8
}

// Select phases: the probe of channel i, the observation after it, the
// completion after the pop's charge, and the end.
const (
	selProbe int8 = iota
	selProbed
	selPopped
	selDone
)

// Begin parks c on this vproc as the continuation of a select over chans
// and registers it on every channel; chargeless.
func (o *SelectOp) Begin(vp *VProc, chans []*Channel, c StepCont) {
	o.begin(chans, vp.parkSteps(c))
}

func (o *SelectOp) begin(chans []*Channel, r *rendezvous) {
	if len(chans) == 0 {
		panic("core: select over no channels")
	}
	*o = SelectOp{chans: chans, r: r, gen: r.gen}
	for i, ch := range chans {
		ch.waiters.pushBottom(r.waiter(i))
	}
}

// answered reports whether the select's wait was claimed — by a sender, a
// close or a timer, possibly completed and its rendezvous reused since — so
// the probe must stop.
func (o *SelectOp) answered() bool { return o.r.gen != o.gen || o.r.claimed }

// Step runs the select's next segment. It never declines, so direct changes
// nothing; it makes SelectOp a Stepper.
func (o *SelectOp) Step(vp *VProc, direct bool) (int64, StepStatus) {
	rt := vp.rt
	for {
		switch o.phase {
		case selProbe:
			if o.i == len(o.chans) || o.answered() {
				o.phase = selDone
				continue
			}
			ch := o.chans[o.i]
			if ch.closed {
				// Observe the close immediately, exactly as if it had found
				// the rendezvous parked.
				o.r.claim(o.i, 0)
				o.phase = selDone
				continue
			}
			if ch.addr == 0 {
				o.i++
				continue
			}
			o.rec = ch.record(vp)
			o.phase = selProbed
			return rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(o.rec), 16, numa.AccessMemory), StepCharge
		case selProbed:
			if o.answered() {
				// A sender delivered (or a close landed, or the timeout
				// fired) during the probe charge.
				o.phase = selDone
				continue
			}
			head := heap.Addr(rt.Space.Payload(o.rec)[chanHeadSlot])
			if head == 0 {
				o.i++
				o.phase = selProbe
				continue
			}
			// Claim our own rendezvous first: senders skip it from here on,
			// and the pop's charge is the only one before it completes. The
			// timeout armed beside it, if any, retires with the claim, as it
			// does on a delivery or a close.
			o.r.claimed = true
			o.r.cancelTimer()
			proxy, c := o.chans[o.i].costPopPending(vp, head)
			o.proxy, o.phase = proxy, selPopped
			return c, StepCharge
		case selPopped:
			o.r.complete(o.i, o.proxy)
			o.phase = selDone
		case selDone:
			return 0, StepDone
		}
	}
}

// rendezvous is one parked continuation, registered on the channels of its
// select, a timer, or both (or, for a send waiting for capacity, a mailbox),
// and claimed exactly once; stale ring entries are skipped. It lives in its
// continuation's task (contTask), so only a step task's is ever reused (see
// stepTask).
type rendezvous struct {
	claimed bool
	// released marks, under Config.Debug, a rendezvous whose step task is on
	// the free list: claiming, completing or firing it panics.
	released bool
	// gen counts the waits this rendezvous has finished; ring entries and
	// SelectOps made during an earlier wait carry an older value.
	gen uint32
	// owner is the vproc the continuation is parked on, and task its task,
	// the one it is embedded beside. The env entries before its last are
	// root sites of owner while parked (see rootCursor).
	owner *VProc
	task  *Task

	// timer is the timeout armed beside this rendezvous, if any
	// (SelectThenTimeout/RecvThenTimeout, AtThen, AtSteps), pending in the
	// owner's queue until it fires or the rendezvous is claimed by a
	// delivery, a close or the registration probe, so the stale deadline
	// neither clamps idle charges nor lingers in the queue. Its Data is the
	// rendezvous itself.
	timer vtime.Timer
}

const errReleasedRendezvous = "core: a recycled rendezvous was claimed, completed or fired"

// checkLive panics if r's step task is on the free list (Config.Debug).
func (r *rendezvous) checkLive() {
	if r.released {
		panic(errReleasedRendezvous)
	}
}

// waiter is r's ring entry for the channel with index which in its select.
func (r *rendezvous) waiter(which int) waiter { return waiter{r, r.gen, int32(which)} }

// cancelTimer retires the timeout armed beside this rendezvous, if any; a
// timer that already popped (its fire path) is not pending, and Remove
// leaves the queue alone.
func (r *rendezvous) cancelTimer() {
	if r.owner.timers.Remove(&r.timer) {
		r.owner.timersChanged() // claimed by another vproc while the owner dozes
	}
}

// claim takes the rendezvous for an outcome and completes it, retiring the
// timeout armed beside it: a sender's handoff, a close, a pop freeing a
// mailbox slot.
func (r *rendezvous) claim(which int, proxy heap.Addr) {
	r.checkLive()
	r.claimed = true
	r.cancelTimer()
	r.complete(which, proxy)
}

// complete hands a claimed rendezvous its outcome — the one place a wait
// finishes, whoever claimed it (claim, the registrant's own probe, a timer's
// fire): the continuation is unregistered, its task gets the winning index
// and the message's proxy in its last env entry, a nil proxy meaning no
// message, the task is queued on the owner, and the generation moves on, so
// every ring entry and SelectOp of this wait is stale from here. The
// continuation was counted in rt.outstanding when it parked; queuing the
// task transfers that count, it does not add to it. Chargeless: each
// claimant charges its own side.
func (r *rendezvous) complete(which int, proxy heap.Addr) {
	r.checkLive()
	o, t := r.owner, r.task
	i := slices.Index(o.parked, r)
	if i < 0 {
		panic("core: rendezvous not registered with its vproc")
	}
	// Deleting in place keeps the remaining entries' order, which
	// collections iterate in.
	o.parked = slices.Delete(o.parked, i, i+1)
	t.which = int32(which)
	t.env[len(t.env)-1] = proxy
	o.enqueue(t)
	r.gen++
}

// waiter is one entry of a channel's rings: a parked continuation, its
// generation when it registered, and the index this channel has in its
// select (0 for a sender's).
type waiter struct {
	r     *rendezvous
	gen   uint32
	which int32
}

// popLive returns the oldest live entry of a channel's ring (the zero waiter
// if there is none), discarding stale ones: entries whose rendezvous was
// already claimed through another channel, a timer or its owner's crash, or
// whose wait completed (its generation moved on) and whose step task may
// have parked again since.
func popLive(q *ring[waiter]) waiter {
	for q.size() > 0 {
		if w := q.popTop(); w.gen == w.r.gen && !w.r.claimed {
			return w
		}
	}
	return waiter{}
}
