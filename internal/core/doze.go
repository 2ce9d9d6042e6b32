package core

// Dozing idle sweeps. A vproc whose multi-round steal sweep (sweep, in
// sched.go) has failed runs the same cycle of turns over and over: a loop-top
// turn at some instant c that charges StealAttemptNs, then probe turns j = 1..J
// at c + j·StealAttemptNs — J = n−1 victims, or the one probe of itself when
// n = 1 — the last of which counts a failed sweep and charges PollNs, so the
// next loop top falls at c + C, C = J·StealAttemptNs + PollNs. When nothing
// the cycle observes can change without another vproc acting, every one of
// those turns fails in exactly the same way, and the vproc dozes instead: its
// sweep leaves the engine's ready window (vtime.Proc.Doze) and takes no turns
// at all until a wake.
//
// The rule (canDoze): after a failed sweep, the vproc dozes when every work
// queue is empty, no global collection is requested, terminating or marking,
// its own limit pointer is not zeroed, it has no timer and no pending fault,
// and its joined task is not done (with no join, tasks are still
// outstanding, or the sweep would have quiesced). Those are all its turns
// read, apart from victims' heapBusy flags, which matter only beside a
// non-empty queue.
//
// The wake sources: every mutation that could change one of them wakes the
// dozers first — a task entering a deque (enqueue: a spawn, or a completed
// receive or timer continuation), a task completing or being lost or the
// outstanding count dropping (release), a collection being requested or its
// termination raised or its mark started, and a timer armed on a dozer
// (timerArm, InstallFaults). Pending faults come only from a vproc's own
// timers, and a limit pointer is zeroed only beside a collection request.
//
// Exactness: the mutation happens during the running proc's turn, whose key
// (clock, ID) every dozer turn already taken in the undozed schedule
// precedes, and every turn still to come follows. wake therefore puts each
// dozer back at its first turn after that key, computed in closed form
// (dozeCatchUp), with the sweep machine's position and the failed sweeps it
// skipped restored. The skipped turns charged only the dozer's own clock and
// counted only its failed sweeps, so every clock, statistic and event is
// bit-identical to the schedule without dozing; only the engine's host-side
// counters differ. No barrier release can run beside a dozer (every barrier
// belongs to a collection window, whose request wakes them all first), so
// the running proc is never past a ready proc's turn when it wakes one.
//
// With SpanWorkers >= 2 sweeps never doze: the span engine's windows would
// run past a dozing step, and which windows open is part of its statistics.

// canDoze reports whether the idle sweep that just failed, waiting for join
// (nil: for quiescence, with tasks outstanding), has nothing left to observe
// until another vproc mutates what it reads (see the comment above).
func (vp *VProc) canDoze(join *Task) bool {
	rt := vp.rt
	g := &rt.global
	// The SpanWorkers test goes when the span engine does (ROADMAP item 2).
	if rt.Cfg.SpanWorkers >= 2 || vp.timers.Len() != 0 || len(vp.pendingFaults) != 0 ||
		vp.Local.LimitZeroed() || g.pending || g.termPending || g.marking || join != nil && join.done {
		return false
	}
	for _, o := range rt.VProcs {
		if o.queue.size() != 0 {
			return false
		}
	}
	return true
}

// doze takes the sweep off the engine's ready window once the current turn's
// PollNs charge lands on its next loop top; k is the machine's position,
// which wake resets.
func (vp *VProc) doze(join *Task, k *int) {
	vp.dozeJoin, vp.dozeK = join, k
	vp.rt.dozers = append(vp.rt.dozers, vp)
	vp.proc.Doze()
}

// enqueue pushes t onto vp's work queue. It is the one way work enters a
// deque, and the dozers' probes would now find it.
func (vp *VProc) enqueue(t *Task) {
	vp.queue.pushBottom(t)
	vp.rt.wake(nil)
}

// release drops the outstanding count of a task that completed or was lost
// (t), of the entry task, or of a lost parked continuation (nil). At zero
// every dozer would quiesce; otherwise only a sweep joining t sees a change.
func (rt *Runtime) release(t *Task) {
	rt.outstanding--
	if rt.outstanding == 0 {
		rt.wake(nil)
	} else if t != nil {
		rt.wake(t)
	}
}

// wake returns the dozing vprocs — all of them, or with t non-nil only those
// whose sweep joins t — to the engine's ready window, each at its first turn
// after the running proc's.
func (rt *Runtime) wake(t *Task) {
	if len(rt.dozers) == 0 {
		return
	}
	w := rt.Eng.Running()
	kept := rt.dozers[:0]
	for _, d := range rt.dozers {
		if t != nil && d.dozeJoin != t {
			kept = append(kept, d)
			continue
		}
		clock, k, skipped := dozeCatchUp(d.Now(), d.ID, w.Now(), w.ID, len(rt.VProcs), rt.Cfg.StealAttemptNs, rt.Cfg.PollNs)
		*d.dozeK = k
		d.Stats.FailedSteals += skipped
		d.dozeJoin, d.dozeK = nil, nil
		rt.Eng.WakeAt(d.proc, clock)
	}
	clear(rt.dozers[len(kept):])
	rt.dozers = kept
}

// dozeCatchUp is the closed form of a dozing sweep's skipped turns. The vproc
// id dozed with its next loop top at c0 in a sweep over n vprocs; the
// waker's turn is (wClock, wID). It returns the vproc's first turn after the
// waker's in (clock, ID) order — its clock and the sweep machine's k there:
// −1 at a loop top, else the victim offset about to be probed — and the
// failed sweeps the turns before it would have counted.
func dozeCatchUp(c0 int64, id int, wClock int64, wID, n int, steal, poll int64) (clock int64, k int, skipped int64) {
	// A turn at the waker's own clock follows it only with a larger ID.
	x := wClock
	if id < wID {
		x++
	}
	if x <= c0 {
		return c0, -1, 0
	}
	probes := int64(max(n-1, 1))
	cycle := probes*steal + poll
	m := (x - c0) / cycle
	j := ((x-c0)%cycle + steal - 1) / steal // the first turn of cycle m at or after x
	if j > probes {
		// Past the last probe: the next loop top, one failed sweep later.
		m, j = m+1, 0
	}
	k = int(j)
	if j == 0 {
		k = -1
	}
	return c0 + m*cycle + j*steal, k, m
}
