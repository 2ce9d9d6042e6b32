package core

import (
	"fmt"

	"repro/internal/heap"
)

// Step tasks. A continuation that SelectSteps or AtSteps parks runs as a task
// in step form: its body is a StepCont, a machine whose turns are the
// segments of its direct-style twin between two charges. Each turn returns
// the charge to its next turn instead of advancing, so the turns can run
// wherever the engine schedules the vproc — the same contract as RunSteps.
// On the serial engine the scheduler loop's idle sweep runs them as its own
// turns (sweep, in sched.go): a vproc that pops or steals a step task keeps
// serving continuations on the engine's inline-step path and never goes back
// to its own stack on the fast path. With span windows on (SpanWorkers >= 2)
// a step task runs direct turns on its vproc's own stack (rerun), each
// charge advanced — the loop StepWhile documents as its equivalent — so the
// window scheduler sees the direct form's sequence of advances.
//
// A turn runs one of two ways. Inline, it calls only cost forms
// (CostAllocRaw, CostReadBlock, SendOp, SelectOp, AtSteps, …), each given the
// turn's direct flag false. A cost form declines, touching nothing, wherever
// its blocking form would collect, fetch a chunk, spin or shed; the turn then
// reports StepDecline, the machine leaves the inline path, and the same turn
// runs once more at the same instant on the vproc's own stack with direct
// true. Direct, the cost forms block instead of declining, and directTurn
// applies the outcome: it advances the charge, and the task steps on. Every
// blocking operation (Send, Select, ProxyDeref, …) is its step form's direct
// turns, so a direct turn that declines panics instead of spinning.

// StepStatus is what a step turn reports.
type StepStatus int8

const (
	// StepCharge: charge the returned duration, then take the next turn.
	StepCharge StepStatus = iota
	// StepDone: finished at this instant, nothing charged.
	StepDone
	// StepDecline: a cost form declined at this instant, nothing charged;
	// the turn runs again with direct true. A direct turn never declines.
	StepDecline
)

// Stepper is a step machine: Step runs its next turn on vp and reports it,
// its cost forms declining unless direct is set (see StepDecline). A step
// task and a kernel's RunSteps machine are both one.
type Stepper interface {
	Step(vp *VProc, direct bool) (int64, StepStatus)
}

// StepCont is a continuation in step form. Start hands it the outcome its
// direct twin's fn would receive (which, and the received message, already
// consumed), at that instant and without a charge; its Step then runs its
// turns until StepDone. A StepCont captures no heap references: what it
// keeps across turns it keeps as its direct twin would keep Go locals, or in
// root slots it pushes and pops itself.
type StepCont interface {
	Start(vp *VProc, which int, msg heap.Addr)
	Stepper
}

// stepTask is a step continuation's task: a contTask (the task and its
// rendezvous) and its step state in one object. The message proxy rides as
// the task's one environment entry (traced while queued, promoted if the
// task is stolen, as every parked continuation's).
//
// Step tasks are the one recycled parked continuation: endTask, where every
// task that finishes ends (run on its vproc's stack or inside the sweep
// machine's sweepStep), hands a step task back (recycleSteps), and the next
// parkSteps takes it, rendezvous and timer included. The runtime keeps the
// list, not each StepCont one embedded task, because a continuation may park
// again from inside its own Step (latArm re-arms itself with AtSteps) while
// the task running it has not ended. By then only stale ring entries and
// SelectOps name the rendezvous, and complete moved its generation past
// theirs. A task lost to a crash, or parked on a crashed vproc, never ends
// and is never recycled; a recycled task's continuation is released, so a
// turn run through a stale reference panics.
type stepTask struct {
	contTask
	cont    StepCont
	use     consumeOp // the message's consumption, the first turns
	started bool      // Start has run
	base    int       // the env entry's root slot while the task runs
}

// stepContTask returns the task that resumes a step continuation: the last
// recycled one, reset with its rendezvous kept (generation, task and timer),
// or a new one.
func (rt *Runtime) stepContTask(c StepCont) *contTask {
	var s *stepTask
	if n := len(rt.freeSteps); n > 0 {
		s, rt.freeSteps = rt.freeSteps[n-1], rt.freeSteps[:n-1]
		*s = stepTask{contTask: contTask{rv: s.rv}, cont: c}
		s.rv.claimed, s.rv.released = false, false
	} else {
		s = &stepTask{cont: c}
		s.rv.task, s.rv.timer.Data = &s.Task, &s.rv
	}
	s.Task = Task{env: s.backing[:], steps: s}
	return &s.contTask
}

// recycleSteps takes back step task s, which has ended, unless its
// generation wrapped. Config.Debug checks that it ended, was not lost and
// left no timeout pending, and poisons its rendezvous until it is taken again.
func (rt *Runtime) recycleSteps(s *stepTask) {
	if rt.Cfg.Debug {
		if !s.done || s.lost || s.rv.owner.timers.Remove(&s.rv.timer) {
			panic(fmt.Sprintf("core: recycling a step task that is not done, lost, or whose timeout is pending (done %v, lost %v)", s.done, s.lost))
		}
		s.rv.released = true
	}
	s.cont = releasedCont{}
	if s.rv.gen != 0 {
		rt.freeSteps = append(rt.freeSteps, s)
	}
}

// releasedCont is a recycled step task's continuation: a turn run through a
// stale reference to the task fails loudly.
type releasedCont struct{}

func (releasedCont) Start(*VProc, int, heap.Addr)          { panic(errReleasedStepTask) }
func (releasedCont) Step(*VProc, bool) (int64, StepStatus) { panic(errReleasedStepTask) }

const errReleasedStepTask = "core: a step task ran after it was recycled"

// SelectSteps is SelectThen for a continuation in step form, direct-style:
// the registration and the probes (SelectOp) with one advance per charge.
func (vp *VProc) SelectSteps(chans []*Channel, c StepCont) {
	vp.selectProbe(chans, vp.parkSteps(c))
}

// AtSteps is AtThen for a continuation in step form: c starts, with which ==
// -1 and no message, at the vproc's first safepoint at or after deadline.
// Chargeless, so a step turn may call it.
func (vp *VProc) AtSteps(deadline int64, c StepCont) {
	vp.timerArm(deadline, &vp.parkSteps(c).timer)
}

// Step runs the step task's next turn on vp: the message's consumption
// first, then the continuation's own turns.
func (s *stepTask) Step(vp *VProc, direct bool) (int64, StepStatus) {
	if !s.started {
		if d, st := s.consume(vp).Step(vp, direct); st != StepDone {
			return d, st
		}
		s.begin(vp)
	}
	return s.cont.Step(vp, direct)
}

// consume returns the message's consumption, taking the proxy from the
// task's env entry (kept current by collections) when it starts.
func (s *stepTask) consume(vp *VProc) *consumeOp {
	if s.use.phase == conStart {
		s.use.proxy = vp.roots[s.base]
	}
	return &s.use
}

// begin counts the receive and starts the continuation.
func (s *stepTask) begin(vp *VProc) {
	if s.use.proxy != 0 {
		vp.Stats.ChanRecvs++
	}
	s.started = true
	s.cont.Start(vp, int(s.which), s.use.msg)
}

// rerun runs m's turn that declined once more, at the same instant on vp's
// own stack, with its cost forms blocking instead of declining, and applies
// it (directTurn); it reports whether m is done. Every decline goes through
// it — the sweep machine's (schedulerLoop) and RunSteps' — and so does a
// step task under span windows (runTask), every one of whose turns is direct.
func (vp *VProc) rerun(m Stepper) (done bool) { return vp.directTurn(m.Step(vp, true)) }

// directTurn applies a direct turn's outcome on vp: it advances by a charge
// and reports whether the machine is done. A direct turn blocks where its
// cost form would decline, so a decline here is a broken machine: it panics.
// Every direct driver goes through it — rerun, and the blocking operations
// that are their step form run direct (Send, selectProbe, ProxyDeref,
// consumeProxy).
func (vp *VProc) directTurn(d int64, st StepStatus) (done bool) {
	switch st {
	case StepDecline:
		panic("core: a step turn declined with direct set")
	case StepCharge:
		vp.advance(d)
	}
	return st == StepDone
}
