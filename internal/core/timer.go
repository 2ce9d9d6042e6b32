package core

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/vtime"
)

// Virtual-time timers. Each vproc owns a deterministic deadline queue
// (vtime.TimerQueue) of parked continuations; the queue is serviced only by
// its owner, at the same safepoints that service preemption signals, so
// firing needs no synchronization beyond the engine's token discipline.
//
// Exactness: a timer's continuation is enqueued at the first safepoint at or
// after its deadline. While the owner is idle (the scheduler loop's sweep,
// which is also where a blocking channel wait waits, or SleepUntil), every
// idle charge is clamped to the earliest pending deadline (see timerClamp),
// so that safepoint lands exactly ON the deadline — an idle vproc fires at
// t, not at the next poll-tick after t. A vproc busy inside a task fires at
// the task's next allocation safepoint or completion, which models real
// wakeup jitter and is equally deterministic.
//
// GC safety: a parked timer continuation is a rendezvous on vp.parked —
// exactly like a parked SelectThen continuation — so its captured
// environment is forwarded by every minor, major, and global collection.
// Firing moves the continuation to the owner's task queue (also a traced
// root set), transferring the rt.outstanding count it acquired when parked.

// timerArm schedules t, a caller-owned entry, on vp's deadline queue: the
// timeout embedded in a rendezvous (&r.timer), and so in its continuation's
// task, which then runs with which = timeoutWhich and a nil message when it
// fires, or a fault-plan event. Arming a timeout allocates nothing. A rendezvous armed on both a
// timer and channel rings (SelectThenTimeout) is claimed by exactly one of
// them: every claim site — sender delivery, the registrant's own
// pending-chain probe, and the timer fire — tests and sets r.claimed inside
// a single advance-free engine segment, so no interleaving can
// double-deliver or strand the continuation.
func (vp *VProc) timerArm(deadline int64, t *vtime.Timer) {
	vp.timers.Add(deadline, t)
	vp.timersChanged() // armed by another vproc on a dozing one
}

// timeoutWhich is the channel index delivered to a timed select's
// continuation when the timer wins.
const timeoutWhich = -1

// fireDueTimers enqueues the continuation of every timer whose deadline has
// been reached. Entries whose rendezvous was already claimed (a channel
// delivered first and retired the timer, or — if the claim and this pop
// raced at the same safepoint — left it stale) are discarded. Fault-plan
// events are not run here: fireDueTimers is called from contexts where
// advancing and allocating are illegal (StepWhile step functions), so they
// are deferred to vp.pendingFaults and executed at the next checkPreempt.
// Must run on the owning vproc.
func (vp *VProc) fireDueTimers() {
	due := vp.dueTimers[:0]
	for {
		tm := vp.timers.PopDue(vp.Now())
		if tm == nil {
			break
		}
		switch d := tm.Data.(type) {
		case *FaultEvent:
			vp.pendingFaults = append(vp.pendingFaults, d)
		case *rendezvous:
			d.checkLive()
			if d.claimed {
				continue // a channel won the race; the ring entry is stale too
			}
			d.claimed = true
			due = append(due, d)
		default:
			panic(fmt.Sprintf("core: unknown timer payload %T", tm.Data))
		}
	}
	// Complete the batch in reverse: the owner pops its deque LIFO, so this
	// runs the batch in (deadline, registration) order — two timers due at
	// the same safepoint fire FIFO, like everything else in the queue
	// discipline. No message exists, so each continuation receives
	// timeoutWhich and a nil address.
	for i := len(due) - 1; i >= 0; i-- {
		due[i].complete(timeoutWhich, 0)
		vp.Stats.TimersFired++
	}
	// complete only queues the continuation and runs nothing, so nothing
	// above re-enters fireDueTimers while it uses the scratch slice. Clear
	// it so that it keeps no fired rendezvous alive.
	clear(due)
	vp.dueTimers = due[:0]
}

// timerClamp bounds an idle charge so the charge lands exactly on the
// earliest pending deadline when that deadline is nearer than d; clamped
// reports whether it did. With no pending timers it is the identity, which
// keeps timer-free schedules bit-identical to the pre-timer engine. It must
// be called at the virtual instant the charge starts (i.e. from the step or
// immediately before the advance that applies it).
func (vp *VProc) timerClamp(d int64) (int64, bool) {
	dl, ok := vp.timers.NextDeadline()
	if !ok {
		return d, false
	}
	rem := dl - vp.Now()
	if rem >= d {
		return d, false
	}
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// AtThen parks fn until the vproc's virtual clock reaches deadline, then
// runs it as a task on this vproc's queue with the captured env (GC roots
// while parked, exactly like a parked SelectThen continuation). A deadline
// at or before the current clock fires at the vproc's next safepoint. The
// continuation counts as outstanding work: the runtime does not quiesce
// while timers are armed.
func (vp *VProc) AtThen(deadline int64, env []heap.Addr, fn func(vp *VProc, env Env)) {
	r := vp.park(env, func(vp *VProc, e Env, _ int, _ heap.Addr) {
		fn(vp, e)
	})
	vp.timerArm(deadline, &r.timer)
}

// deadlineAfter is the instant d after now, for the relative-delay forms
// (named by what): a negative delay, or one whose deadline would wrap past
// the largest int64 instant, panics.
func (vp *VProc) deadlineAfter(what string, d int64) int64 {
	if d < 0 {
		panic(fmt.Sprintf("core: %s with negative delay %d", what, d))
	}
	now := vp.Now()
	if d > math.MaxInt64-now {
		panic(fmt.Sprintf("core: %s with delay %d at %d ns overflows the int64 clock", what, d, now))
	}
	return now + d
}

// AfterThen is AtThen with a relative delay.
func (vp *VProc) AfterThen(delay int64, env []heap.Addr, fn func(vp *VProc, env Env)) {
	vp.AtThen(vp.deadlineAfter("AfterThen", delay), env, fn)
}

// SelectThenTimeout is SelectThen with a deadline: fn runs as a task once
// any of the channels delivers — receiving the winning index and the
// resolved message — or once the timeout elapses first, receiving which ==
// -1 and a nil message. Exactly one of the two happens: the channel
// registrations and the timer share one rendezvous, and every delivery path
// claims it in an advance-free segment. A message already pending at
// registration time wins over an already-expired timeout (the registration
// probe runs before the next timer safepoint).
func (vp *VProc) SelectThenTimeout(chans []*Channel, timeout int64, env []heap.Addr, fn func(vp *VProc, env Env, which int, msg heap.Addr)) {
	deadline := vp.deadlineAfter("SelectThenTimeout", timeout)
	// One rendezvous on the timer and on every channel (see selectProbe for
	// the register-before-probe discipline).
	r := vp.park(env, fn)
	vp.timerArm(deadline, &r.timer)
	vp.selectProbe(chans, r)
}

// RecvThenTimeout is the single-channel form of SelectThenTimeout: fn
// receives ok == false (and a nil message) if the timeout fires first.
func (ch *Channel) RecvThenTimeout(vp *VProc, timeout int64, env []heap.Addr, fn func(vp *VProc, env Env, msg heap.Addr, ok bool)) {
	vp.SelectThenTimeout([]*Channel{ch}, timeout, env, func(vp *VProc, e Env, which int, msg heap.Addr) {
		fn(vp, e, msg, which != timeoutWhich)
	})
}

// SleepFor parks the vproc for d virtual nanoseconds; see SleepUntil.
func (vp *VProc) SleepFor(d int64) {
	vp.SleepUntil(vp.deadlineAfter("SleepFor", d))
}

// SleepUntil parks the vproc until its virtual clock reaches deadline. The
// wait is GC-safe: the sleeper keeps servicing preemption signals (it joins
// pending global collections — a sleeping vproc cannot stall the
// stop-the-world protocol) and fires its own due timers, but unlike a
// channel wait it does not run queued tasks — it is asleep, not idle; its
// queue remains stealable. The vproc resumes exactly at deadline (or later
// only if a collection it had to serve ran past it), stepping through the
// engine's inline path so a long sleep costs function calls, not goroutine
// handoffs.
func (vp *VProc) SleepUntil(deadline int64) {
	for {
		vp.checkPreempt()
		if vp.Now() >= deadline {
			return
		}
		// Step toward the deadline in poll-sized increments (bounded so a
		// preemption signal is noticed promptly), clamped to land exactly on
		// the deadline — and on any nearer timer deadline, whose firing the
		// loop top services. Span-safe: the step observes only frozen shared
		// state (limit, preemption flag, own timers) and writes nothing.
		vp.proc.SpanWhile(func() (int64, bool) {
			if vp.Local.LimitZeroed() || vp.rt.global.pending {
				return 0, true
			}
			now := vp.Now()
			if now >= deadline {
				return 0, true
			}
			d := vp.rt.Cfg.PollNs
			if now+d > deadline {
				d = deadline - now
			}
			if cd, clamped := vp.timerClamp(d); clamped {
				if cd == 0 {
					return 0, true // a timer is due; fire it from the loop top
				}
				return cd, false
			}
			return d, false
		}, nil, nil)
	}
}
