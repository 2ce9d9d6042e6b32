package manticore

// CML-style channels (§2.1: "language-level visible threads and synchronous
// message passing, providing a parallel implementation of Concurrent ML's
// concurrency primitives").
//
// Channels are where object proxies earn their keep (§3.1 footnote 1): a
// send enqueues a *proxy* for the message rather than promoting the message
// up front. If the matching receive happens on the same vproc, the message
// never leaves the local heap; only a cross-vproc rendezvous forces the
// promotion. This is the lazy-promotion discipline applied to explicit
// concurrency.
//
// All channel state lives in the simulated global heap, traced by the
// collector: a channel is a heap record whose pending messages form a chain
// of heap queue nodes, registered as a global root, so in-flight messages
// survive minor, major and global collections. See internal/core/channel.go
// for the representation and README.md for a worked example.
//
// The API, reached through the embedded core runtime:
//
//	ch := rt.NewChannel()          // unbounded mailbox
//	mb := rt.NewMailbox(8)         // bounded: Send blocks while full
//	ch.Send(w, slot)               // publish the object in a root slot
//	st := ch.TrySend(w, slot)      // non-blocking: SendOK / SendFull / SendClosed
//	a, ok := ch.TryRecv(w)         // non-blocking receive
//	a := ch.Recv(w)                // blocking receive (parks a task, joins it)
//	i, a := w.Select(ch1, ch2)     // blocking receive over several channels
//	ch.RecvThen(w, env, fn)        // continuation receive (parks a task)
//	w.SelectThen(chans, env, fn)   // continuation select
//	ch.Close()                     // permanent close: close-as-status
//
// Every receive parks a *task*. Recv and Select then join it, so the calling
// stack frame waits in the scheduler loop (running other tasks, dozing while
// nothing can happen); RecvThen and SelectThen return at once, which is the
// shape to use for deep request/response topologies (a joining frame that
// runs its own producer deadlocks; a parked task cannot).
//
// Close is permanent and idempotent, and closure is delivered as a status,
// never a panic: Send and TrySend report SendClosed — even for a close
// landing mid-send — parked and future receivers wake with a nil message
// (Addr 0, ok == false, which == -1), and pending undelivered messages are
// discarded. This is the recoverable-failure path the overload harness and
// fault injection build on — a server can drain a lane until Close and
// treat the nil message as the shutdown signal.

import "repro/internal/core"

// Channel is a channel carrying heap objects by proxy; state is
// heap-resident and GC-traced. Constructed by Runtime.NewChannel /
// Runtime.NewMailbox.
type Channel = core.Channel

// SendStatus is the outcome of a send attempt — close-as-status, never a
// panic.
type SendStatus = core.SendStatus

// Send statuses.
const (
	SendOK     = core.SendOK
	SendFull   = core.SendFull
	SendClosed = core.SendClosed
)

// Select receives from whichever channel first has a message; it is
// Worker.Select as a free function, for readability at call sites.
func Select(w *Worker, chans ...*Channel) (int, Addr) {
	return w.Select(chans...)
}
