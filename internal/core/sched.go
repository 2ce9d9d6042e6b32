package core

import (
	"math"

	"repro/internal/heap"
)

// Env gives task code GC-safe access to its captured heap references: the
// addresses live in the executing vproc's root stack, which every
// collection rewrites, so Get always yields the object's current address.
type Env struct {
	base, n int
}

// Len returns the number of captured references.
func (e Env) Len() int { return e.n }

// Get reads captured reference i at its current (post-GC) address.
func (e Env) Get(vp *VProc, i int) heap.Addr {
	if i < 0 || i >= e.n {
		panic("core: Env.Get out of range")
	}
	return vp.roots[e.base+i]
}

// Set overwrites captured reference i.
func (e Env) Set(vp *VProc, i int, a heap.Addr) {
	if i < 0 || i >= e.n {
		panic("core: Env.Set out of range")
	}
	vp.roots[e.base+i] = a
}

// Task is a unit of parallel work (§2.3): a continuation pushed onto a
// vproc-local work queue. Env carries the heap references the continuation
// captured; while the task sits in its owner's queue these are local-GC
// roots, and when the task is stolen they are promoted to the global heap
// first (lazy promotion), preserving the heap invariants without write
// barriers.
type Task struct {
	// Fn runs the task on the executing vproc; env exposes the captured
	// references through the executing vproc's root stack.
	Fn func(vp *VProc, env Env)
	// resFn, if set instead of Fn, produces a heap result. When the task
	// executes on a vproc other than its owner, the result is promoted
	// before being handed back — the same rule the language runtime
	// applies to values returned from migrated work.
	resFn func(vp *VProc, env Env) heap.Addr
	// env holds the captured heap references while the task is queued
	// (scanned as local-GC roots of the owner).
	env []heap.Addr
	// owner is the vproc that spawned the task.
	owner int
	// executor ran the task; its collections keep result current until
	// JoinResult detaches it.
	executor *VProc
	// result is the produced value; a GC root of the executor while
	// registered.
	result heap.Addr
	// done is set after Fn returns; Join polls it.
	done bool
	// lost is set instead of a real completion when the executing (or
	// holding) vproc crashed: the task is done in the Join sense — waiting
	// longer cannot help — but produced nothing.
	lost bool
}

// Result returns the task's produced value; valid only after Done and
// normally consumed through JoinResult.
func (t *Task) Result() heap.Addr { return t.result }

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.done }

// ring is the growable ring buffer under the vproc-local work queue
// (ring[*Task]) and the channels' waiter queues (ring[waiter]). On the work
// queue the owner pushes and pops at the bottom (LIFO, for locality) and
// thieves steal from the top (FIFO, stealing the oldest — typically largest
// — task); a waiter queue pushes at the bottom and pops at the top. The
// virtual-time engine serializes all access.
//
// A ring rather than a re-sliced Go slice: a pop moves an index and empties
// the slot, so popped entries are released immediately instead of pinned in
// the backing array, and long-lived queues stop retaining garbage.
type ring[T comparable] struct {
	buf  []T
	head int // ring index of the top (oldest) entry
	n    int // number of entries
}

// at returns the i'th entry, counting from the top (oldest).
func (q *ring[T]) at(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// take empties the slot at ring index i and returns what it held.
func (q *ring[T]) take(i int) (v T) {
	v, q.buf[i] = q.buf[i], v
	return v
}

func (q *ring[T]) pushBottom(v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.at(i)
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// popBottom removes and returns the newest entry; the zero T (a nil task)
// if the ring is empty.
func (q *ring[T]) popBottom() (v T) {
	if q.n > 0 {
		q.n--
		v = q.take((q.head + q.n) % len(q.buf))
	}
	return v
}

// popTop removes and returns the oldest entry; the zero T if the ring is
// empty.
func (q *ring[T]) popTop() (v T) {
	if q.n > 0 {
		v = q.take(q.head)
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	return v
}

// remove unlinks a specific entry (a task, for inline joins); returns false
// if it is no longer queued (it was stolen). Relative order of the remaining
// entries is preserved.
func (q *ring[T]) remove(v T) bool {
	for i := 0; i < q.n; i++ {
		if q.at(i) != v {
			continue
		}
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j+1)%len(q.buf)]
		}
		q.n--
		q.take((q.head + q.n) % len(q.buf))
		return true
	}
	return false
}

func (q *ring[T]) size() int { return q.n }

// MakeEnv pushes the given addresses as roots and returns an Env over them;
// the caller pops len(addrs) roots when done. It lets embedding code (and
// tests) call task bodies directly with GC-safe captures.
func (vp *VProc) MakeEnv(addrs ...heap.Addr) Env {
	base := len(vp.roots)
	vp.roots = append(vp.roots, addrs...)
	return Env{base: base, n: len(addrs)}
}

// Spawn pushes a task onto this vproc's queue and returns it. The captured
// addresses are snapshotted into the task; they remain GC roots of this
// vproc while queued. Under eager promotion (the ablation of the paper's
// lazy scheme) the environment is promoted immediately; under lazy
// promotion it stays local until stolen.
func (vp *VProc) Spawn(fn func(vp *VProc, env Env), env ...heap.Addr) *Task {
	return vp.spawn(&Task{Fn: fn}, env)
}

// SpawnResult spawns a result-producing task.
func (vp *VProc) SpawnResult(fn func(vp *VProc, env Env) heap.Addr, env ...heap.Addr) *Task {
	return vp.spawn(&Task{resFn: fn}, env)
}

func (vp *VProc) spawn(t *Task, env []heap.Addr) *Task {
	t.env, t.owner = append([]heap.Addr(nil), env...), vp.ID
	if !vp.rt.Cfg.LazyPromotion {
		for i, a := range t.env {
			t.env[i] = vp.Promote(a)
		}
	}
	vp.enqueue(t)
	vp.rt.outstanding++
	return t
}

// runTask executes a task on this vproc: the environment is moved onto the
// executing vproc's root stack so collections keep it current.
func (vp *VProc) runTask(t *Task) {
	if t.done {
		panic("core: task run twice")
	}
	base := len(vp.roots)
	vp.roots = append(vp.roots, t.env...)
	e := Env{base: base, n: len(t.env)}
	// The running stack makes in-flight tasks visible to crash cleanup
	// (tasks nest through inline Join); a crash mid-body reports every
	// frame lost. Popped on the normal path only — the crash unwind never
	// returns here.
	vp.running = append(vp.running, t)
	if t.resFn != nil {
		r := t.resFn(vp, e)
		if vp.ID != t.owner {
			// The result crosses vprocs: promote it out of our
			// local heap before publishing.
			r = vp.Promote(r)
		}
		t.result = r
		t.executor = vp
		vp.resultTasks = append(vp.resultTasks, t)
	} else {
		t.Fn(vp, e)
	}
	vp.roots = vp.roots[:base]
	vp.running = vp.running[:len(vp.running)-1]
	t.done = true
	vp.Stats.TasksRun++
	vp.rt.release(t)
}

// JoinResult joins a result-producing task and returns its result, valid
// for use by this (owning) vproc: either a value in this vproc's own local
// heap (the task ran inline) or a promoted global value (the task was
// stolen). The caller must root the result before its next allocation.
func (vp *VProc) JoinResult(t *Task) heap.Addr {
	if t.owner != vp.ID {
		panic("core: JoinResult by non-owner")
	}
	vp.Join(t)
	// Detach the result from the executor's root set.
	ex := t.executor
	for i, q := range ex.resultTasks {
		if q == t {
			ex.resultTasks = append(ex.resultTasks[:i], ex.resultTasks[i+1:]...)
			break
		}
	}
	return t.result
}

// stealFrom takes the top task from a victim observed to be stealable at
// the current virtual instant (the observation and the heapBusy lock are in
// the same engine-scheduled segment, so no collection can intervene).
func (vp *VProc) stealFrom(victim *VProc) *Task {
	rt := vp.rt
	// Lock out the victim's collections BEFORE unlinking the task:
	// once popped, the environment is no longer in the victim's
	// root set, so the victim must not collect until the thief has
	// promoted it.
	victim.heapBusy = true
	t := victim.queue.popTop()
	vp.advance(stealHitNs)
	vp.Stats.Steals++
	// Lazy promotion: the stolen environment must move to the
	// global heap before it crosses vprocs (§3.1). The thief
	// performs the copy out of the victim's heap.
	if rt.Cfg.LazyPromotion {
		for i, a := range t.env {
			t.env[i] = vp.promoteFrom(victim, a)
		}
	}
	victim.unlockHeap()
	return t
}

// Idle-sweep outcomes: what the engine-stepped idle machine observed, to be
// acted on by the vproc's own goroutine at the same virtual instant.
const (
	sweepSteal     = iota // a victim with a stealable task
	sweepRunLocal         // own queue became non-empty
	sweepPreempt          // a pending global collection
	sweepQuiesce          // no outstanding tasks after a failed sweep
	sweepJoinDone         // the joined task completed
	sweepExhausted        // one-shot sweep found nothing (trySteal)
	sweepFault            // a fault-plan event came due (run it off-machine)
	sweepTimer            // a timer deadline was reached (fire it off-machine, re-enter)
	sweepMark             // a concurrent mark needs assist work (run it off-machine)
)

// sweep runs the vproc's steal-probe machine — and, unless oneShot, the
// whole idle cycle of poll ticks and loop-top preemption/work checks —
// inside the engine's inline-step path, parking the goroutine until
// something to act on is observed. The charge/observe sequence is exactly
// that of the same loops built on plain Advance: probes charge
// StealAttemptNs before observing each victim, a failed sweep charges
// PollNs, and loop-top checks (join completion, preemption signal, due
// timers, own queue) re-run after every poll.
//
// Timer exactness: every idle charge is clamped to the vproc's earliest
// pending timer deadline (sweepCharge); a clamped charge lands exactly on
// the deadline and sends the machine back to its loop top, which fires the
// due timer and finds its continuation in the queue. With no timers armed
// the machine is bit-identical to its pre-timer form.
//
// join, when non-nil, is the task whose completion ends the wait; when nil,
// a failed multi-round sweep checks for quiescence instead (schedulerLoop's
// two exits). oneShot ends the machine after a single failed sweep
// (trySteal's contract). After every turn that ends without an outcome the
// sweep dozes until its next turn that can observe something (plan, in
// doze.go), and the turns it skips are accounted when it resumes.
//
// The machine enters at sweep-start: the caller has already performed the
// current iteration's loop-top checks on its own goroutine.
//
// Span safety: the machine parks via SpanWhile — every observation it makes
// (join.done, the preemption flag, timer deadlines, fault and queue sizes,
// victims' heapBusy/queue) is of state only goroutine-bound procs mutate,
// which is frozen while a window runs; every write (k, outcome, victim, the
// failed-steal counter, the limit restore) is vproc-private and covered by
// the save/restore checkpoint. Dozing writes other vprocs' state (their
// duties, their places in the ready tree), so with SpanWorkers >= 2 the
// machine never dozes. The one loop-top action that mutates shared
// state, firing a due timer (it enqueues into vp.queue, which other vprocs'
// steal probes observe), is hoisted out of the machine: the step exits with
// sweepTimer at the exact deadline instant, the timer fires on the vproc's
// own goroutine, and the machine re-enters at its loop top at the same
// instant — the same charge/observe sequence as firing inline, since firing
// only enqueues (it cannot complete joins, raise preemption, or zero
// limits).
func (vp *VProc) sweep(join *Task, oneShot bool) (outcome int, victim *VProc) {
	rt := vp.rt
	m := &vp.sw
	if m.step == nil {
		m.step, m.save, m.restore = vp.sweepStep, vp.sweepSave, vp.sweepRestore
	}
	m.join, m.oneShot, m.k, m.victim = join, oneShot, 0, nil
	fired := false
	for {
		vp.proc.SpanWhile(m.step, m.save, m.restore)
		if m.woke {
			// The sweep ended on the turn it resumed at: still at that
			// instant, its duties pass on (victim is set only by a steal).
			rt.reassign(vp, m.victim)
		}
		if fired {
			// The continuations fired below were queued without arming a
			// prober, and the loop top ended the sweep at once: the caller
			// pops the newest at this instant, and only what else is
			// queued must be watched.
			fired = false
			if (m.outcome != sweepRunLocal || vp.queue.size() > 1) && len(rt.dozers) != 0 {
				rt.armProber(vp)
			}
		}
		if m.outcome != sweepTimer {
			m.join = nil
			return m.outcome, m.victim
		}
		// A deadline was reached mid-sweep: fire it here, off-machine,
		// then re-enter at the loop top at the same virtual instant to
		// re-run the remaining checks and find the continuation in the
		// queue.
		vp.firing = true
		vp.fireDueTimers()
		vp.firing = false
		fired = vp.queue.size() != 0
		m.k = -1
	}
}

// sweeper is a vproc's idle-sweep machine: the state of its sweep (a vproc
// runs one at a time), the span checkpoint of that state, and the step and
// checkpoint functions the engine calls, bound once so that a sweep
// allocates nothing.
type sweeper struct {
	join    *Task
	oneShot bool
	k       int // −1 at a loop top, else the victim offset about to be probed
	outcome int
	victim  *VProc
	woke    bool // the last turn ran after a doze
	saved   struct {
		k, outcome, limit int
		victim            *VProc
		failed            int64
	}
	step          func() (int64, bool)
	save, restore func()
}

// sweepStep is one turn of the sweep machine (see sweep).
func (vp *VProc) sweepStep() (int64, bool) {
	rt := vp.rt
	m := &vp.sw
	if m.woke = vp.dz.at >= 0; m.woke {
		m.k = vp.resume()
	}
	var d int64
	if m.k < 0 {
		// Loop top, reached after a poll charge: the same checks the
		// goroutine loop performs between iterations.
		if m.join != nil && m.join.done {
			m.outcome = sweepJoinDone
			return 0, true
		}
		if vp.Local.LimitZeroed() {
			vp.Local.RestoreLimit()
		}
		if rt.global.pending || rt.global.termPending {
			m.outcome = sweepPreempt
			return 0, true
		}
		if dl, ok := vp.timers.NextDeadline(); ok && dl <= vp.Now() {
			m.outcome = sweepTimer
			return 0, true
		}
		if len(vp.pendingFaults) != 0 {
			// Fault bodies advance and allocate, which is illegal inside
			// this step function; exit the machine so the caller's next
			// checkPreempt runs them.
			m.outcome = sweepFault
			return 0, true
		}
		if vp.queue.size() > 0 {
			m.outcome = sweepRunLocal
			return 0, true
		}
		if vp.gcMarkAttention() {
			// A concurrent mark has gray work (or is ready to terminate)
			// and this vproc is idle: assists advance and mutate shared
			// scan state, which is illegal inside this step function;
			// exit so the caller runs them.
			m.outcome = sweepMark
			return 0, true
		}
		m.k = 1
		d = vp.sweepCharge(rt.Cfg.StealAttemptNs, &m.k)
	} else {
		n := len(rt.VProcs)
		if m.k > 0 {
			v := rt.VProcs[(vp.ID+m.k)%n]
			if !v.heapBusy && v.queue.size() > 0 {
				m.outcome = sweepSteal
				m.victim = v
				return 0, true
			}
		}
		m.k++
		if m.k < n {
			d = vp.sweepCharge(rt.Cfg.StealAttemptNs, &m.k)
		} else {
			vp.Stats.FailedSteals++
			if m.oneShot {
				m.outcome = sweepExhausted
				return 0, true
			}
			if m.join == nil && rt.outstanding == 0 {
				m.outcome = sweepQuiesce
				return 0, true
			}
			m.k = -1
			d = vp.sweepCharge(rt.Cfg.PollNs, &m.k)
		}
	}
	return vp.plan(m.join, m.oneShot, m.k, d, m.woke), false
}

// sweepSave and sweepRestore are the sweep machine's span checkpoint.
func (vp *VProc) sweepSave() {
	m := &vp.sw
	m.saved.k, m.saved.outcome, m.saved.victim = m.k, m.outcome, m.victim
	m.saved.failed = vp.Stats.FailedSteals
	m.saved.limit = vp.Local.Limit
}

func (vp *VProc) sweepRestore() {
	m := &vp.sw
	m.k, m.outcome, m.victim = m.saved.k, m.saved.outcome, m.saved.victim
	vp.Stats.FailedSteals = m.saved.failed
	vp.Local.Limit = m.saved.limit
}

// sweepCharge clamps an idle-machine charge to the vproc's earliest timer
// deadline. When it clamps, the machine's next turn is redirected to the
// loop top (k = -1) so the due timer fires exactly at its deadline; the
// abandoned partial probe stays charged as idle time. With no timers armed
// this is the identity.
func (vp *VProc) sweepCharge(d int64, k *int) int64 {
	if cd, clamped := vp.timerClamp(d); clamped {
		*k = -1
		return cd
	}
	return d
}

// trySteal attempts to steal one task, rotating over victims starting after
// this vproc. On success the stolen task's environment is promoted out of
// the victim's heap (lazy promotion at steal time). The probe loop runs
// through the engine's inline-step path (see sweep). A one-shot sweep only
// reaches its loop top when a timer deadline interrupted it, so the extra
// outcomes are timer-only paths: a fired timer's continuation is the next
// task, and a preemption signal is left for the caller's next checkPreempt.
func (vp *VProc) trySteal() *Task {
	out, victim := vp.sweep(nil, true)
	switch out {
	case sweepSteal:
		return vp.stealFrom(victim)
	case sweepRunLocal:
		return vp.queue.popBottom()
	}
	return nil
}

// findWork returns the next task to run: own queue first, then stealing.
func (vp *VProc) findWork() *Task {
	if t := vp.queue.popBottom(); t != nil {
		return t
	}
	return vp.trySteal()
}

// checkPreempt services a pending preemption signal outside allocation
// sites (scheduler loop, join spins). The pending flag is consulted
// directly as well as the limit pointer so that no interleaving of local
// collections with a global request can drop the signal. Due timers fire
// afterwards, so a deadline passed during the collection is serviced
// immediately.
func (vp *VProc) checkPreempt() {
	if vp.Local.LimitZeroed() {
		vp.Local.RestoreLimit()
	}
	// The flags are read inline: this runs on every scheduler iteration, and
	// neither service call inlines.
	if g := &vp.rt.global; g.pending || g.termPending || g.marking {
		vp.participateGC()
		vp.gcMarkPoint()
	}
	if vp.timers.Len() != 0 {
		vp.fireDueTimers()
	}
	if len(vp.pendingFaults) != 0 {
		vp.runPendingFaults()
	}
}

// ServiceScheduler lets mutator code that is waiting on an external
// condition (e.g. a channel receive) make progress: it services pending
// preemption signals and due timers, runs one available task if any, and
// otherwise advances one poll interval (clamped to the next timer deadline
// so the following iteration fires it exactly on time). Spin loops built on
// it cannot stall the stop-the-world protocol.
func (vp *VProc) ServiceScheduler() {
	vp.checkPreempt()
	if t := vp.findWork(); t != nil {
		vp.runTask(t)
		return
	}
	d, _ := vp.timerClamp(vp.rt.Cfg.PollNs)
	vp.advance(d)
}

// schedulerLoop drives the vproc until join completes or, with join nil,
// until the runtime has no outstanding tasks: it runs queued tasks, steals,
// and otherwise waits in the sweep machine. Every iteration is a safepoint
// for pending global collections. Idle iterations (steal sweeps and poll
// ticks) run through sweep, so an idle vproc costs the engine inline step
// calls, not goroutine handoffs.
func (vp *VProc) schedulerLoop(join *Task) {
	rt := vp.rt
	for join == nil || !join.done {
		vp.checkPreempt()
	work:
		if t := vp.queue.popBottom(); t != nil {
			vp.runTask(t)
			continue
		}
		out, victim := vp.sweep(join, false)
		switch out {
		case sweepSteal:
			vp.runTask(vp.stealFrom(victim))
		case sweepFault:
			continue // loop-top checkPreempt drains the pending faults
		case sweepMark:
			// Idle vproc during a concurrent mark: drain gray chunks
			// (or trigger termination) and re-run the loop-top checks.
			vp.gcMark(math.MaxInt)
			continue
		case sweepRunLocal, sweepPreempt:
			// The sweep's loop-top already performed this
			// iteration's preemption checks; service the signal (if
			// any) and go straight to the work queue, as the plain
			// loop's checkPreempt→findWork sequence would.
			if out == sweepPreempt {
				vp.participateGC()
			}
			goto work
		case sweepJoinDone:
			return
		case sweepQuiesce:
			// Do not exit with a global collection mid-cycle: the
			// rendezvous barriers need every vproc, and a concurrent
			// mark must drain and terminate before the run ends.
			if rt.global.pending || rt.global.termPending {
				vp.participateGC()
				continue
			}
			if rt.global.marking {
				vp.gcMark(math.MaxInt)
				continue
			}
			return
		}
	}
}

// Join waits for t to complete. If the task is still in this vproc's own
// queue it is run inline (the common fork-join fast path); if it was stolen,
// the vproc works on other tasks (or polls) until the thief finishes it.
func (vp *VProc) Join(t *Task) {
	if !t.done && vp.queue.remove(t) {
		vp.runTask(t)
		return
	}
	vp.schedulerLoop(t)
}

// ForkJoin spawns right as a stealable task, runs left inline, then joins.
// Both closures receive their captured references through Env so the
// runtime can move them safely.
func (vp *VProc) ForkJoin(left, right func(vp *VProc, env Env), leftEnv, rightEnv []heap.Addr) {
	t := vp.Spawn(right, rightEnv...)
	base := len(vp.roots)
	vp.roots = append(vp.roots, leftEnv...)
	left(vp, Env{base: base, n: len(leftEnv)})
	vp.roots = vp.roots[:base]
	vp.Join(t)
}

// ParallelRange recursively splits [lo, hi) until the range is at most
// grain, then calls body on each block. The captured references in env are
// promoted automatically when subranges are stolen.
func (vp *VProc) ParallelRange(lo, hi, grain int, env []heap.Addr, body func(vp *VProc, lo, hi int, env Env)) {
	if grain < 1 {
		grain = 1
	}
	var split func(vp *VProc, lo, hi int, e Env)
	split = func(vp *VProc, lo, hi int, e Env) {
		if hi-lo <= grain {
			body(vp, lo, hi, e)
			return
		}
		mid := lo + (hi-lo)/2
		// Snapshot current addresses for the spawned half.
		snap := make([]heap.Addr, e.n)
		for i := 0; i < e.n; i++ {
			snap[i] = e.Get(vp, i)
		}
		t := vp.Spawn(func(vp *VProc, e Env) {
			split(vp, mid, hi, e)
		}, snap...)
		split(vp, lo, mid, e)
		vp.Join(t)
	}
	base := len(vp.roots)
	vp.roots = append(vp.roots, env...)
	split(vp, lo, hi, Env{base: base, n: len(env)})
	vp.roots = vp.roots[:base]
}
