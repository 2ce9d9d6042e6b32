package core

import (
	"testing"

	"repro/internal/heap"
)

// TestSleepUntilExact: a sleeping vproc resumes exactly at its deadline, and
// repeated sleeps across vprocs interleave by the min-clock rule.
func TestSleepUntilExact(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		vp.SleepUntil(100_000)
		if vp.Now() != 100_000 {
			t.Errorf("woke at %d, want exactly 100000", vp.Now())
		}
		vp.SleepFor(2_500)
		if vp.Now() != 102_500 {
			t.Errorf("woke at %d, want exactly 102500", vp.Now())
		}
		// A deadline in the past is a no-op.
		vp.SleepUntil(50_000)
		if vp.Now() != 102_500 {
			t.Errorf("past deadline moved the clock to %d", vp.Now())
		}
	})
}

// TestSleepServicesGlobalGC: a vproc parked in SleepUntil must not stall the
// stop-the-world protocol — a global collection triggered by another vproc
// completes long before the sleeper's deadline, and the sleeper still wakes
// exactly on time.
func TestSleepServicesGlobalGC(t *testing.T) {
	cfg := stressConfig(t, 2)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	const deadline = 80_000_000 // far beyond the mutator's run
	var gcEndAt int64
	rt.SetTracer(func(ev GCEvent) {
		if ev.Kind == EvGlobalEnd && gcEndAt == 0 {
			gcEndAt = ev.At
		}
	})
	var wokeAt int64
	rt.Run(func(vp *VProc) {
		vp.Spawn(func(mvp *VProc, _ Env) {
			// Stolen by vproc 1: force global collections while vproc 0
			// sleeps.
			for i := 0; i < 8; i++ {
				b := buildTree(mvp, 6, uint64(i))
				bs := mvp.PushRoot(b)
				mvp.PromoteRoot(bs)
				mvp.PopRoots(1)
				churn(mvp, 500, 6)
			}
		})
		vp.SleepUntil(deadline)
		wokeAt = vp.Now()
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if gcEndAt == 0 || gcEndAt >= deadline {
		t.Errorf("global GC finished at %d; a sleeping vproc stalled the stop-the-world protocol (deadline %d)", gcEndAt, deadline)
	}
	if wokeAt != deadline {
		t.Errorf("sleeper woke at %d, want exactly %d", wokeAt, deadline)
	}
}

// TestAfterThenFiresExactly: timer continuations fire exactly at their
// deadlines while the owner is idle, in (deadline, registration) order.
func TestAfterThenFiresExactly(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	type firing struct {
		label string
		at    int64
	}
	var fired []firing
	var deadlines []int64
	rt.Run(func(vp *VProc) {
		base := vp.Now()
		// Registered out of deadline order; "b" and "c" share a deadline
		// and must fire in registration order.
		for _, tm := range []struct {
			label string
			delay int64
		}{{"a", 30_000}, {"b", 10_000}, {"c", 10_000}, {"d", 20_000}} {
			tm := tm
			deadlines = append(deadlines, base+tm.delay)
			vp.AfterThen(tm.delay, nil, func(vp *VProc, _ Env) {
				fired = append(fired, firing{tm.label, vp.Now()})
			})
		}
	})
	want := []string{"b", "c", "d", "a"}
	wantAt := []int64{deadlines[1], deadlines[2], deadlines[3], deadlines[0]}
	if len(fired) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i].label != want[i] {
			t.Errorf("firing %d = %q, want %q", i, fired[i].label, want[i])
		}
		if fired[i].at != wantAt[i] {
			t.Errorf("firing %d (%q) ran at %d, want exactly %d", i, fired[i].label, fired[i].at, wantAt[i])
		}
	}
	total := rt.TotalStats()
	if total.TimersFired != 4 {
		t.Errorf("TimersFired = %d, want 4", total.TimersFired)
	}
}

// TestAfterThenEnvSurvivesCollections: the captured environment of a parked
// timer continuation is a GC root; it must be forwarded by minor, major and
// global collections while the timer is armed.
func TestAfterThenEnvSurvivesCollections(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	var envSum uint64
	rt.Run(func(vp *VProc) {
		captured := vp.AllocRaw([]uint64{400, 500})
		cs := vp.PushRoot(captured)
		// A deadline far past the churn below: the environment is parked
		// across every collection flavor before the timer fires.
		vp.AfterThen(60_000_000, []heap.Addr{vp.Root(cs)}, func(vp *VProc, env Env) {
			c := env.Get(vp, 0)
			envSum = vp.LoadWord(c, 0) + vp.LoadWord(c, 1)
		})
		vp.PopRoots(1) // the parked timer is now the only root

		for i := 0; i < 10; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 400, 6)
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if envSum != 900 {
		t.Errorf("captured environment corrupted: sum=%d, want 900", envSum)
	}
}

// TestSelectThenTimeoutExpires: with no sender, the timeout fires exactly at
// its deadline and delivers which == -1 with a nil message.
func TestSelectThenTimeoutExpires(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	var which, calls int
	var msg heap.Addr
	var firedAt, deadline int64
	rt.Run(func(vp *VProc) {
		deadline = vp.Now() + 25_000
		vp.SelectThenTimeout([]*Channel{ch}, 25_000, nil, func(vp *VProc, _ Env, w int, m heap.Addr) {
			which, msg = w, m
			firedAt = vp.Now()
			calls++
		})
	})
	if calls != 1 {
		t.Fatalf("continuation ran %d times, want exactly once", calls)
	}
	if which != -1 || msg != 0 {
		t.Errorf("timeout delivered (%d, %v), want (-1, 0)", which, msg)
	}
	if firedAt != deadline {
		t.Errorf("timeout fired at %d, want exactly %d", firedAt, deadline)
	}
}

// TestSelectThenTimeoutMessageWins: a message delivered before the deadline
// claims the continuation; the timer entry goes stale and must neither
// double-run the continuation nor disturb later channel use (the lost-wakeup
// / double-wake audit of the timer-vs-ring claim protocol).
func TestSelectThenTimeoutMessageWins(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	var calls, which int
	var got uint64
	rt.Run(func(vp *VProc) {
		vp.SelectThenTimeout([]*Channel{ch}, 50_000_000, nil, func(vp *VProc, _ Env, w int, m heap.Addr) {
			calls++
			which = w
			if m != 0 {
				got = vp.LoadWord(m, 0)
			}
		})
		m := vp.AllocRaw([]uint64{11})
		s := vp.PushRoot(m)
		ch.Send(vp, s)
		vp.PopRoots(1)
		// Outlive the stale timer's deadline so a double-wake would be
		// observable before Run returns.
		vp.SleepFor(60_000_000)
	})
	if calls != 1 {
		t.Fatalf("continuation ran %d times, want exactly once", calls)
	}
	if which != 0 || got != 11 {
		t.Errorf("delivered (%d, %d), want (0, 11)", which, got)
	}
	if ts := rt.TotalStats(); ts.TimersFired != 0 {
		t.Errorf("stale timer fired %d continuations, want 0", ts.TimersFired)
	}
}

// TestSelectThenTimeoutLostWakeup: a message sent after the timeout expired
// must not vanish — the stale ring registration is skipped and the message
// stays on the pending chain for the next receiver.
func TestSelectThenTimeoutLostWakeup(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	var timeouts int
	rt.Run(func(vp *VProc) {
		vp.SelectThenTimeout([]*Channel{ch}, 10_000, nil, func(vp *VProc, _ Env, w int, _ heap.Addr) {
			if w != -1 {
				t.Errorf("which = %d, want -1 (timeout)", w)
			}
			timeouts++
		})
		vp.SleepFor(20_000) // let the timeout fire and its task run

		m := vp.AllocRaw([]uint64{23})
		s := vp.PushRoot(m)
		ch.Send(vp, s)
		vp.PopRoots(1)
		if ch.Len() != 1 {
			t.Errorf("message should enqueue past the stale registration; Len = %d", ch.Len())
		}
		got, ok := ch.TryRecv(vp)
		if !ok || vp.LoadWord(got, 0) != 23 {
			t.Error("message lost after a timed-out registration")
		}
	})
	if timeouts != 1 {
		t.Errorf("timeout continuation ran %d times, want 1", timeouts)
	}
}

// TestRecvThenTimeout: the single-channel wrapper reports ok=false on
// timeout and ok=true with the message otherwise.
func TestRecvThenTimeout(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	a, b := rt.NewChannel(), rt.NewChannel()
	var timedOut, delivered bool
	var got uint64
	rt.Run(func(vp *VProc) {
		a.RecvThenTimeout(vp, 5_000, nil, func(vp *VProc, _ Env, _ heap.Addr, ok bool) {
			timedOut = !ok
		})
		b.RecvThenTimeout(vp, 50_000_000, nil, func(vp *VProc, _ Env, m heap.Addr, ok bool) {
			if ok {
				delivered = true
				got = vp.LoadWord(m, 0)
			}
		})
		m := vp.AllocRaw([]uint64{31})
		s := vp.PushRoot(m)
		b.Send(vp, s)
		vp.PopRoots(1)
		vp.SleepFor(10_000)
	})
	if !timedOut {
		t.Error("empty channel's receive should time out")
	}
	if !delivered || got != 31 {
		t.Errorf("delivered=%v got=%d, want true, 31", delivered, got)
	}
}

// TestTimedSelectStress: many timed selects racing senders whose arrival
// instants straddle the deadlines; every continuation must run exactly once
// (no lost wakeups, no double wakes), and two runs must agree exactly — the
// claim-protocol regression test alongside the register-before-probe ones.
func TestTimedSelectStress(t *testing.T) {
	run := func() (timeouts, deliveries int, sum uint64, makespan int64) {
		cfg := stressConfig(t, 3)
		cfg.GlobalTriggerWords = 6 * cfg.ChunkWords
		rt := MustNewRuntime(cfg)
		const n = 40
		chans := make([]*Channel, n)
		for i := range chans {
			chans[i] = rt.NewChannel()
		}
		ran := make([]int, n)
		rt.Run(func(vp *VProc) {
			for i := 0; i < n; i++ {
				i := i
				// Timeouts step across the senders' arrival times, so some
				// selects time out, some receive, and several collide near
				// the boundary.
				vp.SelectThenTimeout([]*Channel{chans[i]}, int64(1000*(i+1)), nil,
					func(vp *VProc, _ Env, w int, m heap.Addr) {
						ran[i]++
						if w == -1 {
							timeouts++
						} else {
							deliveries++
							sum += vp.LoadWord(m, 0)
						}
					})
			}
			for i := 0; i < n; i++ {
				i := i
				vp.AfterThen(int64(1000*(n-i)), nil, func(vp *VProc, _ Env) {
					m := vp.AllocRaw([]uint64{uint64(i + 1)})
					s := vp.PushRoot(m)
					chans[i].Send(vp, s)
					vp.PopRoots(1)
				})
			}
		})
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("select %d ran %d times, want exactly once", i, c)
			}
		}
		if timeouts+deliveries != n {
			t.Fatalf("timeouts %d + deliveries %d != %d", timeouts, deliveries, n)
		}
		// Undelivered messages must still be pending, not lost.
		pending := 0
		for _, ch := range chans {
			pending += ch.Len()
		}
		if pending != timeouts {
			t.Fatalf("pending = %d, want %d (one per timed-out select)", pending, timeouts)
		}
		return timeouts, deliveries, sum, rt.Eng.MaxClock()
	}
	t1, d1, s1, m1 := run()
	t2, d2, s2, m2 := run()
	if t1 != t2 || d1 != d2 || s1 != s2 || m1 != m2 {
		t.Errorf("timed-select stress not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			t1, d1, s1, m1, t2, d2, s2, m2)
	}
	if t1 == 0 || d1 == 0 {
		t.Errorf("stress should exercise both outcomes: timeouts=%d deliveries=%d", t1, d1)
	}
}

// TestTimerRetiredWhenReplyWins: a delivery that claims a timed rendezvous
// must remove its timeout from the timer queue outright (vtime.Remove), not
// merely leave a stale entry to be skipped — a retired deadline must no
// longer occupy queue space or clamp idle charges.
func TestTimerRetiredWhenReplyWins(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	var calls int
	var pendingAfterWin int
	rt.Run(func(vp *VProc) {
		vp.SelectThenTimeout([]*Channel{ch}, 50_000_000, nil, func(vp *VProc, _ Env, w int, m heap.Addr) {
			calls++
		})
		if vp.timers.Len() != 1 {
			t.Errorf("timeout not armed: %d timers pending", vp.timers.Len())
		}
		m := vp.AllocRaw([]uint64{7})
		s := vp.PushRoot(m)
		ch.Send(vp, s)
		vp.PopRoots(1)
		pendingAfterWin = vp.timers.Len()
	})
	if calls != 1 {
		t.Fatalf("continuation ran %d times, want exactly once", calls)
	}
	if pendingAfterWin != 0 {
		t.Errorf("%d timer(s) still pending after the reply won; want 0 (cancelled)", pendingAfterWin)
	}
	if ts := rt.TotalStats(); ts.TimersFired != 0 {
		t.Errorf("cancelled timer fired %d continuations, want 0", ts.TimersFired)
	}
}
