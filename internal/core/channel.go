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
// collector never traces: the capacity bound and the ring of parked
// receivers, which hold root-slot indices and task environments — both
// forwarded by their owning vproc's collections — never raw addresses.

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
	// waiters is the FIFO ring of parked receivers (blocking waiters and
	// parked continuations), each with its index of this channel in the
	// receiver's select. Entries hold no heap addresses.
	waiters ring[waiter]
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
// parked receiver — blocking waiter or parked continuation — is woken with a
// nil message (Recv returns 0, RecvThen/SelectThen callbacks run with msg ==
// 0), later receives return nil immediately, and sends (including sends
// already in flight when the close lands, e.g. from a fault plan) report
// SendClosed and drop their message. Unreceived pending messages are
// discarded.
func (ch *Channel) Close() {
	ch.closed = true
	// Wake every parked receiver with the close status. A rendezvous also
	// registered elsewhere (Select over several channels, or a pending
	// timeout) is claimed here exactly like a delivery would, retiring its
	// timer; stale already-claimed ring entries are discarded by popWaiter.
	for w := ch.popWaiter(); w.r != nil; w = ch.popWaiter() {
		closeDeliver(w.r, w.which)
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
		owner := rt.VProcs[rt.Space.Payload(proxy)[heap.ProxyOwnerSlot]]
		if _, ok := owner.proxyIdx[proxy]; ok {
			owner.dropProxy(proxy)
		}
	}
	rt.unregisterGlobalRoot(&ch.addr)
	ch.addr = 0
}

// closeDeliver completes a rendezvous with the close status: a blocking
// waiter observes a nil proxy in its root slot; a parked continuation runs
// with msg == 0. A close is a host-side event with no acting vproc, so nothing
// is charged — the woken side pays its normal wakeup costs.
func closeDeliver(r *rendezvous, which int) {
	r.claimed = true
	r.cancelTimer()
	r.complete(which, 0)
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
	for n := rt.resolveAddr(heap.Addr(p[chanHeadSlot])); n != 0; {
		np := rt.Space.Payload(n)
		out = append(out, rt.resolveAddr(heap.Addr(np[qnodeMsgSlot])))
		n = rt.resolveAddr(heap.Addr(np[qnodeNextSlot]))
	}
	return out
}

// Send publishes the object held in the sender's root slot. The message is
// wrapped in a proxy: no promotion happens yet. If a receiver is parked on
// the channel the proxy is handed to it directly (the rendezvous); otherwise
// it is enqueued on the heap-resident pending chain. On a bounded channel
// Send first waits, servicing scheduler obligations, until a slot is free.
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

// send is the shared body of Send and TrySend. On the SendOK path it is
// charge-for-charge identical to the historical Send; the closed checks are
// free host-side observations.
func (ch *Channel) send(vp *VProc, slot int, try bool) SendStatus {
	rt := ch.rt
	if ch.closed {
		vp.Stats.ChanSheds++
		return ch.failStatus()
	}
	ch.record(vp)
	// The proxy rides in a root slot for the duration: the bounded-full
	// wait below services the scheduler, which can participate in a global
	// collection that moves the proxy — a raw Go copy of the address would
	// go stale (the exact bug class heap-resident channels exist to fix).
	ps := vp.PushRoot(vp.NewProxy(slot))
	vp.Stats.ChanSends++
	// Every observe-act pair below is advance-free: the probe charge (and
	// the queue-node chunk request) may hand control to other vprocs, so
	// the closed flag, the parked-receiver check, and the capacity check
	// are re-run after any advance, and the final commit (bump + link +
	// count) is a single unadvanced segment.
	for {
		rec := ch.addr // collections update the registered root in place
		if ch.closed || rec == 0 {
			return ch.shedInFlight(vp, ps, ch.failStatus())
		}
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 16, numa.AccessMemory))
		if ch.closed {
			// Closed during the probe charge: rec is a stale snapshot of
			// a dead record — committing through it would lose the
			// message silently.
			return ch.shedInFlight(vp, ps, ch.failStatus())
		}
		// Hand off to a parked receiver only while the pending chain is
		// empty: a waiter can coexist with pending messages (a Select
		// registers before it probes the chains), and handing it the NEW
		// message would overtake the queued ones, breaking FIFO. With a
		// non-empty chain the waiter's own probe finds the head.
		if rt.Space.Payload(rec)[chanHeadSlot] == 0 {
			if ch.handoff(vp, ps) {
				return SendOK
			}
		}
		if ch.cap > 0 && int(rt.Space.Payload(rec)[chanCountSlot]) >= ch.cap {
			if try {
				return ch.shedInFlight(vp, ps, SendFull)
			}
			// Bounded mailbox full: wait in virtual time, servicing
			// scheduler obligations (a receiver must be able to run).
			vp.ServiceScheduler()
			continue
		}
		// Reserve chunk room for the queue node; the request may advance
		// (chunk-pool synchronization), so a receiver may have parked or
		// another sender may have taken the last capacity slot meanwhile
		// — re-check everything before committing.
		dst := rt.globalAllocDst(vp, qnodeSizeWords)
		rec = ch.addr
		if ch.closed || rec == 0 {
			return ch.shedInFlight(vp, ps, ch.failStatus())
		}
		p := rt.Space.Payload(rec)
		if heap.Addr(p[chanHeadSlot]) == 0 {
			if ch.handoff(vp, ps) {
				return SendOK
			}
		}
		if ch.cap > 0 && int(p[chanCountSlot]) >= ch.cap {
			if try {
				return ch.shedInFlight(vp, ps, SendFull)
			}
			continue
		}
		// Commit: bump the node and link it, with no advance until the
		// queue is consistent. The record may share dst's chunk, whose
		// window the bump can grow: p is taken again after it.
		nd := dst.Bump(heap.MakeHeader(heap.IDVector, qnodeSizeWords))
		p = rt.Space.Payload(rec)
		np := rt.Space.Payload(nd)
		np[qnodeMsgSlot] = uint64(vp.Root(ps))
		np[qnodeNextSlot] = 0
		vp.PopRoots(1)
		// Resolve the tail in the commit's own segment: during a concurrent
		// mark an assist may have evacuated the tail node, and the record's
		// slot still names the from-space copy — the link must land in the
		// live copy or the message is lost. Chargeless, and the identity
		// outside a mark.
		tail := vp.resolve(heap.Addr(p[chanTailSlot]))
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
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(nd), (qnodeSizeWords+1)*8, numa.AccessMemory) +
			rt.Machine.AccessCost(vp.Now(), vp.Core, linkNode, 8, numa.AccessMemory) +
			rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 24, numa.AccessMemory))
		return SendOK
	}
}

// handoff completes an in-flight send as a rendezvous if a receiver is parked:
// the proxy riding root slot ps (the top slot) goes straight to the oldest
// unclaimed waiter instead of the pending chain.
func (ch *Channel) handoff(vp *VProc, ps int) bool {
	w := ch.popWaiter()
	if w.r == nil {
		return false
	}
	vp.Stats.ChanHandoffs++
	proxy := vp.Root(ps)
	vp.PopRoots(1)
	ch.deliver(vp, w.r, w.which, proxy)
	return true
}

// shedInFlight abandons an in-flight send, reporting why: the message proxy
// riding root slot ps is deregistered from this vproc and the slot popped,
// so the payload's only send-side retainer disappears and the message
// becomes ordinary local garbage. ps must be the top root slot (send's
// invariant at every shed site).
func (ch *Channel) shedInFlight(vp *VProc, ps int, st SendStatus) SendStatus {
	proxy := vp.Root(ps)
	vp.PopRoots(1)
	vp.dropProxy(proxy)
	vp.Stats.ChanSheds++
	return st
}

// popPending unlinks the head queue node and returns its message proxy; the
// caller has already observed head != 0 with no intervening advance.
func (ch *Channel) popPending(vp *VProc, head heap.Addr) heap.Addr {
	rt := ch.rt
	rec := ch.addr
	p := rt.Space.Payload(rec)
	// The head slot can name a from-space copy during a concurrent mark
	// (the record's links are only healed at mark termination); a sender
	// that linked a successor after the node's evacuation wrote it into the
	// to-space copy, so the read must go through the live copy too.
	head = vp.resolve(head)
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
	// Node read plus record writeback, fused (the node itself becomes
	// garbage for the next global collection).
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(head), qnodeSizeWords*8, numa.AccessMemory) +
		rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 24, numa.AccessMemory))
	return proxy
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
// parks the receiver on the waiter ring; the next Send hands its proxy
// directly to the parked slot (the rendezvous) instead of touching the
// pending chain. While parked the vproc services its scheduler obligations
// (pending tasks, steals, global collections), so channel waits cannot
// stall the stop-the-world protocol. On a closed channel — or if the
// channel closes during the wait — Recv returns 0.
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
	// Park: the root slot receives the proxy; collections of this vproc
	// keep the slot current while we wait.
	r := &rendezvous{vp: vp, slot: vp.PushRoot(0)}
	ch.waiters.pushBottom(waiter{r, 0})
	_, msg := vp.await(r)
	return msg
}

// await parks the calling frame until its rendezvous r is complete — by a
// sender, by a close, or already by the registrant's own probe — and returns
// the winning channel's index and the resolved message (0 for a close), popping
// the root slot the proxy arrived in.
func (vp *VProc) await(r *rendezvous) (int, heap.Addr) {
	// The wait services the scheduler, where this vproc's own crash fault can
	// fire: registering the frame in vp.blocked lets the crash mark it
	// claimed, so no sender ever delivers into a dead vproc's root slots. A
	// probe before the wait never services the scheduler, so registering only
	// here leaves no window.
	vp.blocked = append(vp.blocked, r)
	for !r.ready {
		vp.ServiceScheduler()
	}
	unregister(&vp.blocked, r)
	proxy := vp.roots[r.slot]
	vp.PopRoots(1)
	if proxy == 0 {
		return r.which, 0 // a close, before or during the wait
	}
	vp.Stats.ChanRecvs++
	return r.which, vp.consumeProxy(proxy)
}

// Select receives from whichever of the channels first has a message,
// returning the channel's index and the resolved message. Pending messages
// are taken in argument order; otherwise the vproc parks one rendezvous on
// every channel and the first Send claims it (stale registrations are
// skipped lazily by later sends). A closed channel delivers immediately:
// Select returns its index and a nil message. The same stack-nesting caveat
// as Recv applies; SelectThen is the continuation form.
func (vp *VProc) Select(chans ...*Channel) (int, heap.Addr) {
	r := &rendezvous{vp: vp, slot: vp.PushRoot(0)}
	vp.selectProbe(chans, r)
	return vp.await(r)
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
// (SelectThenTimeout) to claim. The continuation is outstanding work from
// this instant — the runtime must not quiesce while it is parked — and the
// captured environment is rooted (vp.parked) before any advance.
func (vp *VProc) park(env []heap.Addr, fn func(vp *VProc, env Env, which int, msg heap.Addr)) *rendezvous {
	vp.rt.outstanding++
	r := &rendezvous{owner: vp, env: append([]heap.Addr(nil), env...), fn: fn}
	vp.parked = append(vp.parked, r)
	return r
}

// selectProbe is the one registration and probe of every select — Select,
// SelectThen and SelectThenTimeout. It registers r on every channel BEFORE
// probing the pending chains: a Send during one channel's probe charge then
// either sees the waiter (and delivers) or enqueued before registration — in
// which case the probe finds it. Probing first would open a lost-wakeup
// window: a message enqueued on an already-probed channel while a later
// probe's advance runs would strand the parked waiter forever.
//
// The probe walks the chains in argument order and completes r with the first
// pending message (or the first closed channel's nil) exactly as a sender or
// a close would have: a blocking frame finds the proxy in its root slot, a
// continuation is queued as a task. No advance separates the claim from the
// pop, so no delivery (or timer fire) can interleave; if a sender delivered
// during a probe charge, the claimed flag ends the walk.
func (vp *VProc) selectProbe(chans []*Channel, r *rendezvous) {
	if len(chans) == 0 {
		panic("core: select over no channels")
	}
	rt := vp.rt
	for i, ch := range chans {
		ch.waiters.pushBottom(waiter{r, i})
	}
	for i, ch := range chans {
		if ch.closed {
			// Observe the close immediately, exactly as if it had found r
			// parked.
			closeDeliver(r, i)
			return
		}
		if ch.addr == 0 {
			continue
		}
		rec := ch.record(vp)
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(rec), 16, numa.AccessMemory))
		if r.claimed {
			return // a sender delivered (or a close landed) during the probe charge
		}
		head := heap.Addr(rt.Space.Payload(rec)[chanHeadSlot])
		if head == 0 {
			continue
		}
		// Claim our own rendezvous first: senders skip it from here on, and
		// popPending's charge is the only advance before it completes. The
		// timeout armed beside it, if any, retires with the claim, as it does
		// on a delivery or a close.
		r.claimed = true
		r.cancelTimer()
		r.complete(i, ch.popPending(vp, head))
		return
	}
}

// contTask builds the task that resumes a receive continuation: the message
// proxy rides as the last environment entry (traced while queued, promoted
// if the task is stolen) and is resolved by the executing vproc.
func contTask(owner *VProc, env []heap.Addr, proxy heap.Addr, which int, fn func(vp *VProc, env Env, which int, msg heap.Addr)) *Task {
	tenv := make([]heap.Addr, len(env)+1)
	copy(tenv, env)
	tenv[len(env)] = proxy
	return &Task{owner: owner.ID, env: tenv, Fn: func(vp *VProc, e Env) {
		var msg heap.Addr
		if pa := e.Get(vp, e.n-1); pa != 0 {
			msg = vp.consumeProxy(pa)
			vp.Stats.ChanRecvs++
		}
		fn(vp, Env{base: e.base, n: e.n - 1}, which, msg)
	}}
}

// consumeProxy resolves a received message proxy, deregistering it from its
// owner: channel receives consume the proxy exactly once, so keeping it
// registered would leave the message a permanent GC root of the sender —
// same-vproc traffic would retain and re-copy every consumed payload in all
// subsequent collections. The cross-vproc path (ProxyDeref) already
// deregisters on promotion; this handles the same-vproc case.
func (vp *VProc) consumeProxy(proxy heap.Addr) heap.Addr {
	if proxy == 0 {
		return 0 // close-status wakeup: no message, nothing to consume
	}
	rt := vp.rt
	proxy = vp.resolve(proxy)
	p := rt.Space.Payload(proxy)
	owner := rt.VProcs[p[heap.ProxyOwnerSlot]]
	if owner == vp && heap.Addr(p[heap.ProxyGlobalSlot]) == 0 {
		node := rt.Space.NodeOf(proxy)
		vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, heap.ProxySizeWords*8, numa.AccessMemory))
		// The proxy's chunk may have grown during the advance (its owner
		// bumps into it): read the slot through a fresh slice.
		a := vp.resolve(heap.Addr(rt.Space.Payload(proxy)[heap.ProxyLocalSlot]))
		vp.dropProxy(proxy)
		return a
	}
	return vp.ProxyDeref(proxy)
}

// deliver completes a rendezvous on the sender's side, charged as one vproc
// signal.
func (ch *Channel) deliver(vp *VProc, r *rendezvous, which int, proxy heap.Addr) {
	r.claimed = true
	r.cancelTimer()
	r.complete(which, proxy)
	vp.advance(signalVProcNs)
}

// rendezvous is one parked receiver: either a blocking waiter (vp/slot set;
// the sender deposits the proxy into the root slot and flips ready) or a
// parked continuation (owner/env/fn set; the sender queues the continuation
// task on the owner). A rendezvous registered on several channels (Select)
// is claimed exactly once; stale ring entries are skipped.
type rendezvous struct {
	claimed bool

	// Blocking waiter.
	vp    *VProc
	slot  int
	which int
	ready bool

	// Parked continuation. env holds captured heap references; they are
	// root sites of owner while parked (see rootCursor).
	owner *VProc
	env   []heap.Addr
	fn    func(vp *VProc, env Env, which int, msg heap.Addr)

	// timer is the timeout armed beside this rendezvous, if any
	// (SelectThenTimeout/RecvThenTimeout): retired when the rendezvous is
	// claimed by a delivery, a close or the registration probe, so the stale
	// deadline neither clamps idle charges nor lingers in the owner's queue.
	timer *vtime.Timer
}

// cancelTimer retires the timeout armed beside this rendezvous, if any. Safe
// on the timer's own fire path: fireDueTimers clears r.timer before running
// the timeout, and Remove of an already-popped entry is a no-op regardless.
func (r *rendezvous) cancelTimer() {
	if r.timer != nil {
		r.owner.timers.Remove(r.timer)
		r.timer = nil
		r.owner.timersChanged() // claimed by another vproc while the owner dozes
	}
}

// complete hands a claimed rendezvous its outcome — the one place a receive
// finishes, whoever claimed it (a sender's deliver, a close, the registrant's
// own probe, a timer's fire): a blocking waiter gets the proxy deposited into
// its parked root slot and is flagged ready; a parked continuation is
// unregistered and materialized as a task on its owner's queue, a nil proxy
// meaning no message. The continuation was counted in rt.outstanding when it
// parked; queuing the task transfers that count, it does not add to it.
// Chargeless: each claimant charges its own side.
func (r *rendezvous) complete(which int, proxy heap.Addr) {
	if r.fn == nil {
		r.vp.roots[r.slot] = proxy
		r.which = which
		r.ready = true
		return
	}
	o := r.owner
	unregister(&o.parked, r)
	o.enqueue(contTask(o, r.env, proxy, which, r.fn))
}

// unregister removes r from one of its vproc's registries — the parked
// continuations or the blocked frames — preserving the order of the remaining
// entries (collections iterate the parked list; order must be deterministic).
func unregister(registry *[]*rendezvous, r *rendezvous) {
	i := slices.Index(*registry, r)
	if i < 0 {
		panic("core: rendezvous not registered with its vproc")
	}
	*registry = slices.Delete(*registry, i, i+1)
}

// waiter is one entry of a channel's waiter ring: a parked receiver and the
// index this channel has in its select.
type waiter struct {
	r     *rendezvous
	which int
}

// popWaiter returns the oldest unclaimed receiver parked on the channel (the
// zero waiter if there is none), discarding entries whose rendezvous was
// already claimed through another channel (or a timer).
func (ch *Channel) popWaiter() waiter {
	for ch.waiters.size() > 0 {
		if w := ch.waiters.popTop(); !w.r.claimed {
			return w
		}
	}
	return waiter{}
}
