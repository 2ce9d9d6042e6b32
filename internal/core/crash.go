package core

import (
	"fmt"
	"math"
)

// Crash-fault semantics. A FaultCrash kills a vproc at a chosen virtual
// instant — the deterministic model of a node or board dying under a
// rack-scale runtime. The contract, piece by piece:
//
//   - The crash is instantaneous: cleanup is host-side bookkeeping, charged
//     no virtual time, and then the vproc's stack unwinds with the
//     vprocCrashed sentinel (recovered in Runtime.Run) so the engine
//     retires its proc normally. Crash-free runs execute zero crash code on
//     any charged path and are bit-identical to pre-crash-subsystem builds.
//
//   - Nothing is silently leaked. Every in-flight task on the crashed
//     vproc's running stack (tasks nest through inline Join; while the entry
//     runs it is the bottom frame on vproc 0) and every queued task is
//     reported lost: marked done+lost, its rt.outstanding count released,
//     and tallied in LostTasks. Join on a lost task returns (its lost flag
//     records the loss). Every parked continuation is claimed, so no ring
//     pop delivers to it, and its task's count is released and tallied in
//     LostConts. Pending timer deadlines are cancelled and counted in
//     LostTimers.
//
//   - The global-GC barrier protocol shrinks: the crashed vproc is dropped
//     from all four barriers (vtime.Barrier.Drop), releasing any vprocs
//     already parked at the entry rendezvous, and leadership of a pending
//     collection transfers to the lowest live vproc. Later collections
//     expect one fewer participant. requestGlobalGC stops signalling the
//     corpse.
//
//   - The local heap is retired, not freed: its memory is frozen in place
//     so proxies minted by the crashed vproc stay resolvable (a thief's
//     ProxyDeref promotes out of the frozen heap exactly as before — sent
//     messages are recovered work, not lost work). The leader of each
//     subsequent global collection adopts the retired heap: it forwards the
//     crashed vproc's proxies and walks the frozen old area + nursery so
//     everything reachable from them survives, then repairs the promotion
//     forwarding words, keeping the retired heap verifier-clean.
//
//   - Owned channels (Channel.SetOwner) die with the vproc through the
//     close-as-status protocol: parked receivers wake with nil messages,
//     parked sends and later send attempts observe SendCrashed. A
//     Channel.Close racing the owner's crash at the same instant resolves
//     deterministically by engine order, and the status is delivered
//     exactly once — whichever lands first pops the waiters; the loser
//     finds the channel already closed and does nothing.
//
//   - Steal sweeps need no special case: the crashed queue is empty, so
//     the victim filter (queue.size() > 0) never selects a corpse.

// vprocCrashed is the panic sentinel that unwinds a crashed vproc's stack.
type vprocCrashed struct{}

// crash executes the FaultCrash: it runs on the dying vproc's own
// goroutine, at a checkPreempt site (so the vproc holds no collection or
// promotion locks and is not inside a barrier), performs the advance-free
// cleanup, and never returns.
func (vp *VProc) crash() {
	if vp.crashed {
		panic(fmt.Sprintf("core: vproc %d crashed twice", vp.ID))
	}
	rt := vp.rt
	vp.crashed = true
	vp.Stats.Crashes++

	// Pending timers die with the vproc. Fault events queued behind this
	// crash are dropped uncounted (they target a corpse); timer
	// continuations are counted as cancelled deadlines — the rendezvous
	// themselves are retired through vp.parked below.
	for {
		t := vp.timers.PopDue(math.MaxInt64)
		if t == nil {
			break
		}
		if r, ok := t.Data.(*rendezvous); ok && !r.claimed {
			vp.Stats.LostTimers++
		}
	}
	vp.pendingFaults = nil

	// Parked continuations (RecvThen/SelectThen/AtThen chains, and the
	// blocking receive or full-mailbox send the dying stack was joining) are
	// lost: each holds one outstanding count. Marking them claimed makes any
	// later sender's, pop's or close's ring pop skip the dead registration,
	// exactly like a consumed rendezvous. They never complete, so they are
	// never recycled: their ring entries stay stale for the rest of the run.
	for _, r := range vp.parked {
		if r.claimed {
			continue
		}
		r.claimed = true
		rt.release(r.task)
		vp.Stats.LostConts++
	}
	vp.parked = nil

	// In-flight tasks (the running stack nests through inline Join) and
	// queued tasks are lost work: exact Join accounting requires marking
	// them done so joiners stop waiting, and lost so they can tell.
	for i := len(vp.running) - 1; i >= 0; i-- {
		loseTask(vp, vp.running[i])
	}
	vp.running = nil
	for vp.queue.size() > 0 {
		loseTask(vp, vp.queue.popBottom())
	}

	// Results this vproc computed for still-live owners are recovered, not
	// lost: hand them to the owner so global collections keep forwarding
	// them and JoinResult finds them. Results owned by a corpse die here.
	for _, t := range vp.resultTasks {
		owner := rt.VProcs[t.owner]
		if owner != vp && !owner.crashed {
			t.executor = owner
			owner.resultTasks = append(owner.resultTasks, t)
		}
	}
	vp.resultTasks = nil
	vp.roots = nil

	// Owned channels fail over to SendCrashed / nil wakeups. This runs
	// after the parked retirement above so the close path skips this
	// vproc's own dead registrations and only wakes live parties.
	for _, ch := range vp.owned {
		ch.crashClose()
	}
	vp.owned = nil

	// Leave the stop-the-world protocol. If a collection is pending (or,
	// in concurrent mode, a mark or termination is in flight) and this
	// vproc was its leader, leadership moves to the lowest live vproc
	// (which cannot have passed the entry barrier: a pending collection
	// holds everyone there until all participants — including this one —
	// arrive). Dropping the entry barrier may release the parked field.
	g := &rt.global
	if (g.pending || g.marking || g.termPending) && g.leader == vp.ID {
		for _, o := range rt.VProcs {
			if !o.crashed {
				g.leader = o.ID
				break
			}
		}
	}
	if g.marking {
		// The dead vproc's gray set is adopted like its heap: its current
		// chunk may still hold unscanned data that no assist can reach
		// through the scan lists (globalScanDrained checks curChunks, but
		// only live vprocs drain their own). Hand it to the lists and
		// detach it so the mark can terminate.
		if c := vp.curChunk; c != nil && c.Scan < c.Top {
			rt.enqueueScan(c)
		}
		vp.curChunk = nil
	}
	g.entry.Drop(vp.proc)
	g.setup.Drop(vp.proc)
	g.scanDone.Drop(vp.proc)
	g.finish.Drop(vp.proc)

	panic(vprocCrashed{})
}

// loseTask reports one task lost to a crash.
func loseTask(vp *VProc, t *Task) {
	t.done = true
	t.lost = true
	t.executor = vp
	t.result = 0
	vp.rt.release(t)
	vp.Stats.LostTasks++
}

// adoptCrashedHeaps is the leader's share of the scan on behalf of the
// vprocs that cannot do their own: it runs each crashed vproc's root
// walk, nursery included (the frozen heap was live mid-mutation, so both
// areas hold data reachable through proxies), on the leader's clock. crash
// emptied the dead vproc's root stack, queue, results and parked list, so the
// sites the walk finds are its proxies and its frozen local data — global
// roots nobody else will scan. Forwarding them preserves exactly what the dead
// vproc's own globalScanRoots would have preserved, so messages in flight at
// crash time stay deliverable, and it is charged like the owner's walk:
// per-copy evacuation charges plus one fused streaming read per retired heap.
func (vp *VProc) adoptCrashedHeaps() {
	for _, dead := range vp.rt.VProcs {
		if dead.crashed {
			vp.globalScanRoots(dead, true)
		}
	}
}
