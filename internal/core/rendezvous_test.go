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

// sel returns a SelectThen continuation that logs its outcome as id.
func (l *rvLog) sel(id string) func(vp *VProc, _ Env, which int, msg heap.Addr) {
	return func(vp *VProc, _ Env, which int, msg heap.Addr) {
		e := rvEvent{id: id, vproc: vp.ID, at: vp.Now(), which: which}
		if msg != 0 {
			e.msg = vp.LoadWord(msg, 0)
		}
		*l = append(*l, e)
	}
}

// recv returns a RecvThen continuation that logs its outcome as id.
func (l *rvLog) recv(id string) func(vp *VProc, _ Env, msg heap.Addr) {
	f := l.sel(id)
	return func(vp *VProc, e Env, msg heap.Addr) { f(vp, e, 0, msg) }
}

// timed returns a RecvThenTimeout continuation that logs its outcome as id,
// a timeout as which -1.
func (l *rvLog) timed(id string) func(vp *VProc, _ Env, msg heap.Addr, ok bool) {
	f := l.sel(id)
	return func(vp *VProc, e Env, msg heap.Addr, ok bool) {
		which := 0
		if !ok {
			which = timeoutWhich
		}
		f(vp, e, which, msg)
	}
}

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

// TestRendezvousRecycling: a rendezvous goes back to its runtime when its
// wait completes and the next park takes it; the ring entries its earlier
// wait left behind stay stale, because they carry the generation it parked
// with. Each case runs twice with Config.Debug on, which poisons a recycled
// rendezvous (claiming, completing or firing it panics); both runs must log
// the same outcomes at the same instants on the same vprocs and pass
// VerifyHeap, and each case checks that the reuse it depends on happened.
func TestRendezvousRecycling(t *testing.T) {
	for _, tc := range []struct {
		name string
		nv   int
		run  func(t *testing.T, rt *Runtime, log *rvLog)
		want map[string][3]int
	}{{
		// A select over a and b is won on a; its rendezvous is reused by a
		// receive on c while the select's entry is still in b's ring, and a
		// send on b then pops that stale entry: it must enqueue, not deliver
		// to the receive on c.
		name: "select",
		nv:   1,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b, c := rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			rt.Run(func(vp *VProc) {
				vp.SelectThen([]*Channel{a, b}, nil, log.sel("select"))
				r := lastParked(vp)
				sendWord(vp, a, 1)
				c.RecvThen(vp, nil, log.recv("c"))
				if lastParked(vp) != r {
					t.Error("the receive on c did not reuse the select's rendezvous")
				}
				sendWord(vp, b, 2) // pops the select's stale entry
				sendWord(vp, c, 3)
				b.RecvThen(vp, nil, log.recv("b"))
				for _, ch := range []*Channel{a, b, c} {
					ch.Close()
				}
			})
		},
		want: map[string][3]int{"select": {0, 1}, "c": {0, 3}, "b": {0, 2}},
	}, {
		// A timed receive on a times out; its rendezvous, embedded timer
		// included, is reused by a timed receive on b, and a send on a pops
		// the stale entry the timeout left in a's ring.
		name: "timeout",
		nv:   1,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b := rt.NewChannel(), rt.NewChannel()
			rt.Run(func(vp *VProc) {
				a.RecvThenTimeout(vp, 5_000, nil, log.timed("a timed"))
				r := lastParked(vp)
				vp.SleepFor(10_000) // the timeout fires
				b.RecvThenTimeout(vp, 1_000_000, nil, log.timed("b timed"))
				if dl, ok := vp.timers.NextDeadline(); lastParked(vp) != r || vp.timers.Len() != 1 || !ok || dl != r.timer.When {
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
		// receivers, one of them a select over r and y; the select's
		// rendezvous, recycled last, is reused by a receive on z while its
		// entry is still in y's ring.
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
				r.RecvThen(vp, nil, log.recv("r 1"))
				r.RecvThen(vp, nil, log.recv("r 2"))
				vp.SelectThen([]*Channel{r, y}, nil, log.sel("r or y"))
				ry := lastParked(vp)
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
				z.RecvThen(vp, nil, log.recv("z"))
				if lastParked(vp) != ry {
					t.Error("the receive on z did not reuse the select's rendezvous")
				}
				sendWord(vp, y, 5) // pops the select's stale entry
				sendWord(vp, z, 6)
				y.RecvThen(vp, nil, log.recv("y"))
				y.Close()
				z.Close()
			})
		},
		want: map[string][3]int{
			"send 1": {0, 0, int(SendClosed)}, "send 2": {0, 0, int(SendClosed)},
			"r 1": {0, 0}, "r 2": {0, 0}, "r or y": {0, 0}, "z": {0, 6}, "y": {0, 5},
		},
	}, {
		// Vproc 1 steals a task that parks three continuations — one with
		// a timeout, one a select — and computes past its crash: the crash
		// retires them, and they are never recycled. Receives parked on
		// vproc 0 afterwards get the messages sent on the same channels.
		name: "crash",
		nv:   2,
		run: func(t *testing.T, rt *Runtime, log *rvLog) {
			a, b, c := rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			rt.InstallFaults((&FaultPlan{}).CrashAt(1, 60_000))
			var lost []*rendezvous
			var gens []uint32
			rt.Run(func(vp *VProc) {
				held := vp.Spawn(func(wvp *VProc, _ Env) {
					a.RecvThen(wvp, nil, log.recv("lost a"))
					b.RecvThenTimeout(wvp, 1_000_000, nil, log.timed("lost b"))
					wvp.SelectThen([]*Channel{a, c}, nil, log.sel("lost a or c"))
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
				for _, after := range []struct {
					ch *Channel
					id string
				}{{a, "after a"}, {c, "after c"}} {
					after.ch.RecvThen(vp, nil, log.recv(after.id))
					if slices.Contains(lost, lastParked(vp)) {
						t.Error("a receive after the crash reused a rendezvous the crash retired")
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
				if !r.claimed || r.gen != gens[i] || r.released || slices.Contains(rt.freeRendezvous, r) {
					t.Errorf("rendezvous %d retired by the crash was recycled: claimed %v, generation %d (parked at %d), released %v",
						i, r.claimed, r.gen, gens[i], r.released)
				}
			}
		},
		want: map[string][3]int{"after a": {0, 9}, "after c": {0, 10}},
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
				if len(rt.freeRendezvous) == 0 {
					t.Errorf("run %d: no rendezvous was recycled", i)
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

// TestReleasedRendezvousPanics: under Config.Debug a recycled rendezvous is
// poisoned, so claiming, completing or firing it through a stale reference
// fails loudly instead of waking another wait's continuation.
func TestReleasedRendezvousPanics(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	rt.Run(func(vp *VProc) {
		ch.RecvThen(vp, nil, func(*VProc, Env, heap.Addr) {})
		sendWord(vp, ch, 1)
	})
	if len(rt.freeRendezvous) != 1 {
		t.Fatalf("%d rendezvous recycled, want 1", len(rt.freeRendezvous))
	}
	r, vp := rt.freeRendezvous[0], rt.VProcs[0]
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
}
