package core

import (
	"slices"
	"testing"

	"repro/internal/heap"
)

// rvEvent is one continuation's outcome in a rendezvous recycling run: who
// ran, where and when, with which index and which message word (0 for none).
type rvEvent struct {
	id       string
	vproc    int
	at       int64
	which    int
	msg      uint64
	sendStat SendStatus
}

// rvLog records the outcomes of one run.
type rvLog []rvEvent

// recv returns a RecvThen continuation that logs its outcome as id, as a
// step continuation's Start does.
func (l *rvLog) recv(id string) func(vp *VProc, _ Env, msg heap.Addr) {
	return func(vp *VProc, _ Env, msg heap.Addr) { rvStep{l, id}.Start(vp, 0, msg) }
}

// step returns a step continuation that logs its outcome as id when it
// starts, a timeout as which -1, and then ends.
func (l *rvLog) step(id string) StepCont { return rvStep{l, id} }

type rvStep struct {
	log *rvLog
	id  string
}

func (c rvStep) Start(vp *VProc, which int, msg heap.Addr) {
	e := rvEvent{id: c.id, vproc: vp.ID, at: vp.Now(), which: which}
	if msg != 0 {
		e.msg = vp.rt.Space.Payload(msg)[0] // chargeless: Start may not advance
	}
	*c.log = append(*c.log, e)
}

func (rvStep) Step(*VProc, bool) (int64, StepStatus) { return 0, StepDone }

// outcomes maps each logged id to its (which, message, send status); an id
// logged twice also maps "<id> twice", so a continuation run twice shows.
func (l rvLog) outcomes() map[string][3]int {
	m := make(map[string][3]int, len(l))
	for _, e := range l {
		if _, dup := m[e.id]; dup {
			m[e.id+" twice"] = [3]int{}
		}
		m[e.id] = [3]int{e.which, int(e.msg), int(e.sendStat)}
	}
	return m
}

// sendWord sends a one-word message on ch.
func sendWord(vp *VProc, ch *Channel, w uint64) SendStatus {
	s := vp.PushRoot(vp.AllocRaw([]uint64{w}))
	st := ch.Send(vp, s)
	vp.PopRoots(1)
	return st
}

// lastParked is the rendezvous vp parked most recently.
func lastParked(vp *VProc) *rendezvous { return vp.parked[len(vp.parked)-1] }

// selectSteps parks step continuation c in a select over chans, a timeout
// after timeout ns beside it unless timeout is negative (SelectThenTimeout's
// body in step form), and returns its rendezvous.
func selectSteps(vp *VProc, chans []*Channel, timeout int64, c StepCont) *rendezvous {
	r := vp.parkSteps(c)
	if timeout >= 0 {
		vp.timerArm(vp.Now()+timeout, &r.timer)
	}
	vp.selectProbe(chans, r)
	return r
}

// settle runs vp's scheduler loop until the task of r, whose wait has
// completed, has ended: the idle sweep runs its turns, and its end hands
// the step task, rendezvous included, back to the runtime.
func settle(vp *VProc, r *rendezvous) { vp.schedulerLoop(r.task) }

// freed reports whether r's step task is on its runtime's free list.
func freed(rt *Runtime, r *rendezvous) bool {
	return slices.ContainsFunc(rt.freeSteps, func(s *stepTask) bool { return &s.rv == r })
}

// TestRendezvousRecycling: a step continuation's rendezvous lives in its
// step task, so it is reused when the task has ended and the next park
// takes the task — never when the wait completes, since the task has not
// run yet; the ring entries its earlier wait left behind stay stale,
// because they carry the generation it parked with. Closure and result
// continuations (the capacity waits here, the receives that collect what
// is left) are never reused. Each case runs twice with Config.Debug on,
// which poisons a recycled step task's rendezvous (claiming, completing or
// firing it panics); both runs must log the same outcomes at the same
// instants on the same vprocs and pass VerifyHeap, and each case checks
// that the reuse it depends on happened.
func TestRendezvousRecycling(t *testing.T) {
	for _, tc := range []struct {
		name string
		nv   int
		run  func(t *testing.T, rt *Runtime, log *rvLog)
		want map[string][3]int
	}{{
		// A select over a and b is won on a. A receive on d parked before
		// the select's task ends gets a task of its own; one on c parked
		// after it ended reuses the select's, while the select's entry is
		// still in b's ring, and a send on b then pops that stale entry:
		// it must enqueue, not deliver to the receive on c.
		name: "select",
		nv:   1,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b, c, d := rt.NewChannel(), rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			rt.Run(func(vp *VProc) {
				r := selectSteps(vp, []*Channel{a, b}, -1, log.step("select"))
				sendWord(vp, a, 1)
				if selectSteps(vp, []*Channel{d}, -1, log.step("d")) == r {
					t.Error("the receive on d reused the select's rendezvous before its step task ended")
				}
				settle(vp, r)
				if selectSteps(vp, []*Channel{c}, -1, log.step("c")) != r {
					t.Error("the receive on c did not reuse the select's rendezvous")
				}
				sendWord(vp, b, 2) // pops the select's stale entry
				sendWord(vp, c, 3)
				sendWord(vp, d, 4)
				b.RecvThen(vp, nil, log.recv("b"))
				for _, ch := range []*Channel{a, b, c, d} {
					ch.Close()
				}
			})
		},
		want: map[string][3]int{"select": {0, 1}, "d": {0, 4}, "c": {0, 3}, "b": {0, 2}},
	}, {
		// A timed receive on a times out; its step task, embedded timer
		// included, is reused by a timed receive on b, and a send on a pops
		// the stale entry the timeout left in a's ring.
		name: "timeout",
		nv:   1,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b := rt.NewChannel(), rt.NewChannel()
			rt.Run(func(vp *VProc) {
				r := selectSteps(vp, []*Channel{a}, 5_000, log.step("a timed"))
				vp.SleepFor(10_000) // the timeout fires
				settle(vp, r)
				r2 := selectSteps(vp, []*Channel{b}, 1_000_000, log.step("b timed"))
				if dl, ok := vp.timers.NextDeadline(); r2 != r || vp.timers.Len() != 1 || !ok || dl != r.timer.When {
					t.Error("the timed receive on b did not reuse the timed-out rendezvous and its timer")
				}
				sendWord(vp, a, 7) // pops the timed-out wait's stale entry
				sendWord(vp, b, 8)
				a.RecvThen(vp, nil, log.recv("a"))
				if n := vp.timers.Len(); n != 0 {
					t.Errorf("%d timers pending after the reply won, want 0", n)
				}
				a.Close()
				b.Close()
			})
		},
		want: map[string][3]int{"a timed": {timeoutWhich, 0}, "b timed": {0, 8}, "a": {0, 7}},
	}, {
		// A close claims two senders waiting on a full mailbox and three
		// receivers, one of them a select over r and y. Three receives on
		// z reuse the three receivers' step tasks while the select's entry
		// is still in y's ring.
		name: "close",
		nv:   1,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			m, r, y, z := rt.NewMailbox(1), rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			rt.Run(func(vp *VProc) {
				sendWord(vp, m, 1) // m is full
				var senders []*Task
				for _, id := range []string{"send 1", "send 2"} {
					senders = append(senders, vp.Spawn(func(vp *VProc, _ Env) {
						st := sendWord(vp, m, 2)
						*log = append(*log, rvEvent{id: id, vproc: vp.ID, at: vp.Now(), sendStat: st})
					}))
				}
				rs := []*rendezvous{
					selectSteps(vp, []*Channel{r}, -1, log.step("r 1")),
					selectSteps(vp, []*Channel{r}, -1, log.step("r 2")),
					selectSteps(vp, []*Channel{r, y}, -1, log.step("r or y")),
				}
				vp.AfterThen(50_000, nil, func(*VProc, Env) {
					m.Close()
					r.Close()
				})
				for _, s := range senders {
					vp.Join(s)
				}
				if len(vp.parked) != 0 {
					t.Fatalf("%d continuations parked after the close, want 0", len(vp.parked))
				}
				for _, rv := range rs {
					settle(vp, rv)
				}
				for _, id := range []string{"z 1", "z 2", "z 3"} {
					if rv := selectSteps(vp, []*Channel{z}, -1, log.step(id)); !slices.Contains(rs, rv) {
						t.Errorf("the receive %s on z did not reuse a closed receiver's rendezvous", id)
					}
				}
				sendWord(vp, y, 5) // pops the select's stale entry
				for w := uint64(6); w <= 8; w++ {
					sendWord(vp, z, w)
				}
				y.RecvThen(vp, nil, log.recv("y"))
				y.Close()
				z.Close()
			})
		},
		want: map[string][3]int{
			"send 1": {0, 0, int(SendClosed)}, "send 2": {0, 0, int(SendClosed)},
			"r 1": {0, 0}, "r 2": {0, 0}, "r or y": {0, 0},
			"z 1": {0, 6}, "z 2": {0, 7}, "z 3": {0, 8}, "y": {0, 5},
		},
	}, {
		// Vproc 1 steals a task that parks three step continuations — one
		// with a timeout, one a select — and computes past its crash: the
		// crash retires them, and they are never reused. Receives parked
		// on vproc 0 afterwards reuse the step task of one that vproc 0
		// finished after the crash, and get the messages sent on the same
		// channels.
		name: "crash",
		nv:   2,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b, c := rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			rt.InstallFaults((&FaultPlan{}).CrashAt(1, 60_000))
			var lost []*rendezvous
			var gens []uint32
			rt.Run(func(vp *VProc) {
				held := vp.Spawn(func(wvp *VProc, _ Env) {
					selectSteps(wvp, []*Channel{a}, -1, log.step("lost a"))
					selectSteps(wvp, []*Channel{b}, 1_000_000, log.step("lost b"))
					selectSteps(wvp, []*Channel{a, c}, -1, log.step("lost a or c"))
					if wvp.ID != 1 {
						t.Errorf("the continuations parked on vproc %d, want the crashing vproc 1", wvp.ID)
					}
					lost = slices.Clone(wvp.parked)
					for _, r := range lost {
						gens = append(gens, r.gen)
					}
					wvp.Compute(100_000)
				})
				vp.Compute(150_000) // leave the parked continuations to the crash
				vp.Join(held)
				done := selectSteps(vp, []*Channel{c}, 0, log.step("timer"))
				vp.SleepFor(1) // the timeout fires
				settle(vp, done)
				for i, ch := range []*Channel{a, c} {
					r := selectSteps(vp, []*Channel{ch}, -1, log.step("after "+string(rune('a'+2*i))))
					if slices.Contains(lost, r) {
						t.Error("a receive after the crash reused a rendezvous the crash retired")
					}
					if i == 0 && r != done {
						t.Error("the first receive after the crash did not reuse the step task vproc 0 finished after it")
					}
				}
				sendWord(vp, a, 9)
				sendWord(vp, c, 10)
			})
			if s := rt.TotalStats(); s.Crashes != 1 || s.LostConts != 3 || s.LostTimers != 1 {
				t.Errorf("%d crashes lost %d continuations and %d timers, want 1, 3, 1", s.Crashes, s.LostConts, s.LostTimers)
			}
			if len(lost) != 3 {
				t.Fatalf("%d continuations parked on the crashing vproc, want 3", len(lost))
			}
			for i, r := range lost {
				if !r.claimed || r.gen != gens[i] || r.released || freed(rt, r) {
					t.Errorf("rendezvous %d retired by the crash was recycled: claimed %v, generation %d (parked at %d), released %v",
						i, r.claimed, r.gen, gens[i], r.released)
				}
			}
		},
		want: map[string][3]int{"timer": {timeoutWhich, 0}, "after a": {0, 9}, "after c": {0, 10}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var logs [2]rvLog
			var stats [2]VPStats
			for i := range logs {
				rt := MustNewRuntime(stressConfig(t, tc.nv))
				tc.run(t, rt, &logs[i])
				if err := rt.VerifyHeap(); err != nil {
					t.Fatalf("run %d: heap invariants: %v", i, err)
				}
				if len(rt.freeSteps) == 0 {
					t.Errorf("run %d: no step task was recycled", i)
				}
				stats[i] = rt.TotalStats()
			}
			if !slices.Equal(logs[0], logs[1]) {
				t.Errorf("reruns differ:\n  %v\n  %v", logs[0], logs[1])
			}
			if stats[0] != stats[1] {
				t.Errorf("reruns' stats differ:\n  %+v\n  %+v", stats[0], stats[1])
			}
			got := logs[0].outcomes()
			if len(got) != len(tc.want) {
				t.Errorf("outcomes %v, want %v", got, tc.want)
			}
			for id, w := range tc.want {
				if g, ok := got[id]; !ok || g != w {
					t.Errorf("%s: outcome (which, message, send status) %v, want %v (log %v)", id, g, w, logs[0])
				}
			}
		})
	}
}

// TestReleasedRendezvousPanics: under Config.Debug the rendezvous of a
// recycled step task is poisoned until the next park takes the task, so
// claiming, completing or firing it through a stale reference fails loudly
// instead of waking another wait's continuation.
func TestReleasedRendezvousPanics(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	var log rvLog
	rt.Run(func(vp *VProc) {
		selectSteps(vp, []*Channel{ch}, -1, log.step("ch"))
		sendWord(vp, ch, 1)
	})
	if len(rt.freeSteps) != 1 {
		t.Fatalf("%d step tasks recycled, want 1", len(rt.freeSteps))
	}
	s, vp := rt.freeSteps[0], rt.VProcs[0]
	r := &s.rv
	for name, use := range map[string]func(){
		"claim":    func() { r.claim(0, 0) },
		"complete": func() { r.complete(0, 0) },
		"fire": func() {
			vp.timers.Add(vp.Now(), &r.timer)
			vp.fireDueTimers()
		},
	} {
		func() {
			defer func() {
				if got := recover(); got != errReleasedRendezvous {
					t.Errorf("%s of a recycled rendezvous: recovered %v, want %q", name, got, errReleasedRendezvous)
				}
			}()
			use()
		}()
	}
	if p := rt.stepContTask(log.step("again")); p != &s.contTask || p.rv.released {
		t.Errorf("the next step task is the recycled one %v, its rendezvous poisoned %v; want true, false", p == &s.contTask, p.rv.released)
	}
}
