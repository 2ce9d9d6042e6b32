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
// a step task runs on its vproc's own stack, each turn followed by an
// Advance — the loop StepWhile documents as its equivalent — so the window
// scheduler sees the direct form's sequence of advances.
//
// A turn calls only cost forms (CostAllocRaw, CostReadBlock, SendOp,
// SelectOp, AtSteps, …). A cost form declines, touching nothing, wherever its
// direct form would collect, fetch a chunk, spin or shed; the turn then
// reports StepDecline, the machine leaves the inline path, Direct performs
// that one operation direct-style on the vproc's own stack at the same
// instant, and the task steps on.

// StepStatus is what a step turn reports.
type StepStatus int8

const (
	// StepCharge: charge the returned duration, then take the next turn.
	StepCharge StepStatus = iota
	// StepDone: finished at this instant, nothing charged.
	StepDone
	// StepDecline: a cost form declined at this instant, nothing charged;
	// Direct performs the operation before the next turn.
	StepDecline
)

// StepCont is a continuation in step form. Start hands it the outcome its
// direct twin's fn would receive (which, and the received message, already
// consumed), at that instant and without a charge; Step then runs its turns
// until StepDone; Direct performs, direct-style, the operation whose cost form
// made Step decline. A StepCont captures no heap references: what it keeps
// across turns it keeps as its direct twin would keep Go locals, or in root
// slots it pushes and pops itself.
type StepCont interface {
	Start(vp *VProc, which int, msg heap.Addr)
	Step(vp *VProc) (int64, StepStatus)
	Direct(vp *VProc)
}

// stepTask is a step continuation's task: the task and its step state in one
// object. The message proxy rides as the task's one environment entry
// (traced while queued, promoted if the task is stolen, as every parked
// continuation's).
//
// Step tasks are recycled through their runtime: endTask, where every task
// that finishes ends (run on its vproc's stack or inside the sweep machine's
// sweepStep), hands a step task back (recycleSteps), and the next parkSteps
// takes it. The runtime keeps the list, not each StepCont one embedded task,
// because a continuation may park again from inside its own Step (latArm
// re-arms itself with AtSteps) while the task running it has not ended. A
// task lost to a crash never reaches endTask and is never recycled. A
// recycled task's continuation is released, so any turn run through a stale
// reference panics.
type stepTask struct {
	Task
	cont    StepCont
	use     consumeOp    // the message's consumption, the first turns
	started bool         // Start has run
	base    int          // the env entry's root slot while the task runs
	backing [1]heap.Addr // the env's one entry
}

// stepContTask returns the task that resumes a step continuation: the last
// recycled one, reset, or a new one.
func (rt *Runtime) stepContTask(c StepCont) *Task {
	var s *stepTask
	if n := len(rt.freeSteps); n > 0 {
		s, rt.freeSteps = rt.freeSteps[n-1], rt.freeSteps[:n-1]
	} else {
		s = new(stepTask)
	}
	*s = stepTask{cont: c}
	s.Task = Task{env: s.backing[:], steps: s}
	return &s.Task
}

// recycleSteps takes back step task s, which has ended, and releases its
// continuation. Config.Debug checks that it ended and was not lost.
func (rt *Runtime) recycleSteps(s *stepTask) {
	if rt.Cfg.Debug && (!s.done || s.lost) {
		panic(fmt.Sprintf("core: recycling a step task that is done %v, lost %v", s.done, s.lost))
	}
	s.cont = releasedCont{}
	rt.freeSteps = append(rt.freeSteps, s)
}

// releasedCont is a recycled step task's continuation: a turn run through a
// stale reference to the task fails loudly.
type releasedCont struct{}

func (releasedCont) Start(*VProc, int, heap.Addr)    { panic(errReleasedStepTask) }
func (releasedCont) Step(*VProc) (int64, StepStatus) { panic(errReleasedStepTask) }
func (releasedCont) Direct(*VProc)                   { panic(errReleasedStepTask) }

const errReleasedStepTask = "core: a step task ran after it was recycled"

// SelectSteps is SelectThen for a continuation in step form, direct-style:
// the registration and the probes (SelectOp) with one advance per charge.
func (vp *VProc) SelectSteps(chans []*Channel, c StepCont) {
	var o SelectOp
	o.Begin(vp, chans, c)
	o.direct(vp)
}

// AtSteps is AtThen for a continuation in step form: c starts, with which ==
// -1 and no message, at the vproc's first safepoint at or after deadline.
// Chargeless, so a step turn may call it.
func (vp *VProc) AtSteps(deadline int64, c StepCont) {
	vp.timerArm(deadline, vp.parkSteps(c))
}

// turn runs the step task's next turn on vp: the message's consumption
// first, then the continuation's own turns.
func (s *stepTask) turn(vp *VProc) (int64, StepStatus) {
	if !s.started {
		if d, st := s.consume(vp).step(vp, false); st != StepDone {
			return d, st
		}
		s.begin(vp)
	}
	return s.cont.Step(vp)
}

// consume returns the message's consumption, taking the proxy from the
// task's env entry (kept current by collections) when it starts.
func (s *stepTask) consume(vp *VProc) *consumeOp {
	if s.use.phase == conStart {
		s.use.proxy = vp.roots[s.base]
	}
	return &s.use
}

// direct performs the operation the last turn declined.
func (s *stepTask) direct(vp *VProc) {
	if s.started {
		s.cont.Direct(vp)
		return
	}
	s.consume(vp).direct(vp)
	s.begin(vp)
}

// begin counts the receive and starts the continuation.
func (s *stepTask) begin(vp *VProc) {
	if s.use.proxy != 0 {
		vp.Stats.ChanRecvs++
	}
	s.started = true
	s.cont.Start(vp, int(s.which), s.use.msg)
}

// runSteps runs step task s on its vproc's own stack, each turn followed by
// an Advance. Only span windows reach it: on the serial engine a step task
// always runs inside the sweep machine.
func (vp *VProc) runSteps(s *stepTask) {
	for {
		var st StepStatus
		for {
			var d int64
			if d, st = s.turn(vp); st != StepCharge {
				break
			}
			vp.advance(d)
		}
		if st == StepDone {
			return
		}
		s.direct(vp)
	}
}
