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
	// which is a parked continuation's outcome, the index of the channel
	// that completed it (see rendezvous.complete); int32 keeps Task in its
	// size class.
	which int32
	// steps, if set instead of Fn, is the task's body in step form (see
	// steptask.go).
	steps *stepTask
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

// bottom returns the newest entry without removing it; the zero T if the
// ring is empty.
func (q *ring[T]) bottom() (v T) {
	if q.n > 0 {
		v = q.at(q.n - 1)
	}
	return v
}

// MakeEnv pushes the given addresses as roots and returns an Env over them;
// the caller pops len(addrs) roots when done. Every task start and fork-join
// pushes its environment through it, and it lets embedding code call task
// bodies directly with GC-safe captures.
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
	e := vp.beginTask(t)
	if t.steps != nil {
		// Only span windows reach here: on the serial engine a step task
		// always runs inside the sweep machine.
		for !vp.rerun(t.steps) {
		}
	} else if t.resFn != nil {
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
	vp.endTask(t, e.base)
}

// beginTask is runTask's prologue, at the instant the task starts: its
// environment moves onto the root stack, and the returned Env covers it.
func (vp *VProc) beginTask(t *Task) Env {
	if t.done {
		panic("core: task run twice")
	}
	e := vp.MakeEnv(t.env...)
	// The running stack makes in-flight tasks visible to crash cleanup
	// (tasks nest through inline Join); a crash mid-body reports every
	// frame lost. Popped on the normal path only — the crash unwind never
	// returns here.
	vp.running = append(vp.running, t)
	if t.steps != nil {
		t.steps.base = e.base
	}
	return e
}

// endTask is runTask's epilogue, at the instant the body returns.
func (vp *VProc) endTask(t *Task, base int) {
	vp.roots = vp.roots[:base]
	vp.running = vp.running[:len(vp.running)-1]
	t.done = true
	vp.Stats.TasksRun++
	vp.rt.release(t)
	if t.steps != nil {
		vp.rt.recycleSteps(t.steps)
	}
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
	sweepSteal    = iota // a victim with a stealable task
	sweepRunLocal        // own queue became non-empty
	sweepPreempt         // a pending global collection
	sweepQuiesce         // no outstanding tasks after a failed sweep
	sweepJoinDone        // the joined task completed
	sweepFault           // a fault-plan event came due (run it off-machine)
	sweepTimer           // a timer deadline was reached (fire it off-machine, re-enter)
	sweepMark            // a concurrent mark needs assist work (run it off-machine)
	sweepDecline         // the step task the machine runs declined (rerun the turn off-machine, re-enter)
	sweepLoop            // the step task finished and the loop top has work (take it off-machine)
)

// sweep runs the vproc's idle cycle — steal probes, poll ticks and loop-top
// preemption/work checks — inside the engine's inline-step path, parking the
// goroutine until something to act on is observed. The charge/observe
// sequence is exactly that of the same loops built on plain Advance: probes
// charge StealAttemptNs before observing each victim, a failed sweep charges
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
// two exits; a blocking receive's or a full mailbox's wait is such a join).
// After every turn that ends without an outcome the sweep dozes until its
// next turn that can observe something (plan, in doze.go), and the turns it
// skips are accounted when it resumes.
//
// The machine enters at sweep-start: the caller has already performed the
// current iteration's loop-top checks on its own goroutine. With a step task
// begun (beginSteps) it enters at that task's next turn instead (sweepStep).
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
func (vp *VProc) sweep(join *Task) (outcome int, victim *VProc) {
	m := &vp.sw
	if m.step == nil {
		m.step, m.save, m.restore = vp.sweepStep, vp.sweepSave, vp.sweepRestore
		if vp.rt.Cfg.SpanWorkers >= 2 {
			m.step = vp.sweepTurn
		}
	}
	m.join, m.k, m.victim = join, 0, nil
	for {
		vp.proc.SpanWhile(m.step, m.save, m.restore)
		vp.sweepTail(m.outcome)
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
		m.fired = vp.queue.size() != 0
		m.k = -1
	}
}

// sweepTail is what a sweep does at the instant it ends with outcome, before
// anything acts on it.
func (vp *VProc) sweepTail(outcome int) {
	rt := vp.rt
	m := &vp.sw
	if m.woke {
		// The sweep ended on the turn it resumed at: still at that
		// instant, its duties pass on (victim is set only by a steal).
		m.woke = false
		rt.reassign(vp, m.victim)
	}
	if m.fired {
		// The continuations fired off-machine were queued without arming a
		// prober, and the loop top ended the sweep at once: the caller
		// pops the newest at this instant, and only what else is
		// queued must be watched.
		m.fired = false
		if (outcome != sweepRunLocal || vp.queue.size() > 1) && len(rt.dozers) != 0 {
			rt.armProber(vp)
		}
	}
}

// sweepRuns reports whether the sweep machine runs t's turns as its own: a
// step task, on the serial engine.
func (vp *VProc) sweepRuns(t *Task) bool {
	return t.steps != nil && vp.rt.Cfg.SpanWorkers < 2
}

// beginSteps starts step task t in the sweep machine, which runs its turns
// from its next one (see sweepStep).
func (vp *VProc) beginSteps(t *Task) {
	vp.beginTask(t)
	vp.sw.task = t.steps
}

// idleLoopTop is the scheduler loop's top — the join check and checkPreempt
// — inside the sweep machine, after a step task finished there: it fires due
// timers, and reports false, having done nothing else, where the loop top
// has work the machine leaves to the vproc's own stack (which repeats the
// timer check to no effect).
func (vp *VProc) idleLoopTop() bool {
	g := &vp.rt.global
	if j := vp.sw.join; j != nil && j.done || vp.Local.LimitZeroed() || g.pending || g.termPending || g.marking || len(vp.pendingFaults) != 0 {
		return false
	}
	if vp.timers.Len() != 0 {
		vp.fireDueTimers()
	}
	return len(vp.pendingFaults) == 0
}

// sweeper is a vproc's idle-sweep machine: the state of its sweep (a vproc
// runs one at a time), the span checkpoint of that state, and the step and
// checkpoint functions the engine calls, bound once so that a sweep
// allocates nothing.
type sweeper struct {
	join    *Task
	k       int // −1 at a loop top, else the victim offset about to be probed
	outcome int
	victim  *VProc
	woke    bool // the last turn ran after a doze
	fired   bool // the sweep fired its timers off-machine and re-entered
	// task is the step task whose turns the machine runs, and stole the
	// step task it is stealing, during the steal's charge.
	task  *stepTask
	stole *Task
	saved struct {
		k, outcome, limit int
		victim            *VProc
		failed            int64
	}
	step          func() (int64, bool)
	save, restore func()
}

// sweepStep is one turn of the sweep machine (see sweep): a turn of its
// idle cycle, or of the step task it runs. On the serial engine, a sweep that
// finds a step task in its own queue or at the top of a victim's takes it in
// the same turn and runs the task's turns as its own, doing runTask's and
// stealFrom's bookkeeping at their instants; when the task finishes, the
// scheduler loop's top (idleLoopTop) and the next step task in the queue, or
// a new sweep, follow in the same turn. The machine leaves the inline path
// where the vproc's own stack would do anything else: a task's decline, a
// loop top with work, a task that is not in step form.
//
// With span windows on, a sweep runs no step task, and its machine is
// sweepTurn alone.
func (vp *VProc) sweepStep() (int64, bool) {
	m := &vp.sw
	tasked := false
	for {
		if t := m.stole; t != nil {
			// stealFrom, after its charge.
			m.stole = nil
			vp.Stats.Steals++
			m.victim.unlockHeap()
			vp.beginSteps(t)
		}
		if m.task == nil {
			if d, done := vp.sweepTurn(); m.task == nil {
				return d, done
			}
		}
		if !tasked {
			tasked = true
			vp.countStepTurn()
		}
		d, st := m.task.Step(vp, false)
		switch st {
		case StepCharge:
			return d, false
		case StepDecline:
			m.outcome = sweepDecline
			return 0, true
		}
		t := m.task
		m.task = nil
		vp.endTask(&t.Task, t.base)
		if !vp.idleLoopTop() {
			m.outcome = sweepLoop
			return 0, true
		}
		if t := vp.queue.bottom(); t != nil {
			if t.steps == nil {
				m.outcome = sweepLoop
				return 0, true
			}
			vp.beginSteps(vp.queue.popBottom())
			continue
		}
		m.k, m.victim = 0, nil
	}
}

// countStepTurn counts a turn that runs a step task's turn, or steals one,
// when the engine runs it inline (StepTaskTurns).
func (vp *VProc) countStepTurn() {
	if vp.proc.InlineTurn() {
		vp.rt.stepTurns++
	}
}

// sweepTurn is one turn of the idle cycle.
func (vp *VProc) sweepTurn() (int64, bool) {
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
		if t := vp.queue.bottom(); t != nil {
			if vp.sweepRuns(t) {
				vp.sweepTail(sweepRunLocal)
				vp.beginSteps(vp.queue.popBottom())
				return 0, false
			}
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
				m.victim = v
				if t := v.queue.at(0); vp.sweepRuns(t) && vp.stealsUncopied(v, t) {
					// stealFrom, up to its charge.
					vp.sweepTail(sweepSteal)
					v.heapBusy = true
					m.stole = v.queue.popTop()
					vp.countStepTurn()
					return stealHitNs, false
				}
				m.outcome = sweepSteal
				return 0, true
			}
		}
		m.k++
		if m.k < n {
			d = vp.sweepCharge(rt.Cfg.StealAttemptNs, &m.k)
		} else {
			vp.Stats.FailedSteals++
			if m.join == nil && rt.outstanding == 0 {
				m.outcome = sweepQuiesce
				return 0, true
			}
			m.k = -1
			d = vp.sweepCharge(rt.Cfg.PollNs, &m.k)
		}
	}
	return vp.plan(m.join, m.k, d, m.woke), false
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

// stealsUncopied reports whether stealing t from victim promotes nothing:
// every entry of its environment is nil or outside the victim's local heap,
// so stealFrom's promotions pass it through unchanged.
func (vp *VProc) stealsUncopied(victim *VProc, t *Task) bool {
	if !vp.rt.Cfg.LazyPromotion {
		return true
	}
	for _, a := range t.env {
		if a != 0 && a.RegionID() == victim.Local.Region.ID {
			return false
		}
	}
	return true
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
			if !vp.sweepRuns(t) {
				vp.runTask(t)
				continue
			}
			vp.beginSteps(t)
		}
	idle:
		out, victim := vp.sweep(join)
		switch out {
		case sweepDecline:
			// The step task's cost form declined: rerun that turn here,
			// direct, advance by its charge, and step on. The task is put
			// aside meanwhile, so a loop nested in the turn (a send waiting
			// for capacity) runs its own tasks, never this task's turns.
			t := vp.sw.task
			vp.sw.task = nil
			if vp.rerun(t) {
				vp.endTask(&t.Task, t.base)
				continue
			}
			vp.sw.task = t
			goto idle
		case sweepLoop:
			continue
		case sweepSteal:
			t := vp.stealFrom(victim)
			if vp.sweepRuns(t) {
				vp.beginSteps(t)
				goto idle
			}
			vp.runTask(t)
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
			// any) and go straight to the work queue, as the loop
			// top's checkPreempt and pop would.
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
	e := vp.MakeEnv(leftEnv...)
	left(vp, e)
	vp.roots = vp.roots[:e.base]
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
	e := vp.MakeEnv(env...)
	split(vp, lo, hi, e)
	vp.roots = vp.roots[:e.base]
}
