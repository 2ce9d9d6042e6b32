package vtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// Block suspends the proc until another proc calls Wake on it. The proc's
// clock is advanced to at least the waker's clock. Block returns once the
// proc is both woken and scheduled. Block and Wake build this package's test
// programs; outside tests a proc blocks only in a Barrier.
func (p *Proc) Block() {
	p.state = Blocked
	// dispatch panics rather than return nil while p is Blocked.
	p.yieldTo(p.eng.dispatch())
}

// Wake makes q ready again (WakeAt, which panics unless q is blocked). It
// must be called by the running proc; q's clock is advanced to the waker's
// clock so virtual time never flows backwards across the wakeup edge. The
// waker keeps running; q is scheduled by the min-clock rule at the waker's
// next Advance/Block.
func (p *Proc) Wake(q *Proc) { p.eng.WakeAt(q, max(q.clock, p.clock)) }

func TestSerializedMinClockOrder(t *testing.T) {
	e := NewEngine(3)
	var order []int
	e.Run(func(p *Proc) {
		// Proc i advances by (i+1)*10 per step; the engine must always
		// run the minimum-clock proc next.
		for s := 0; s < 4; s++ {
			order = append(order, p.ID)
			p.Advance(int64((p.ID + 1) * 10))
		}
	})
	// Hand-traced min-clock schedule (ties by ID). Each proc records
	// before advancing, so the first three events are 0,1,2 at clock 0;
	// then proc 0 (clock 10) runs twice to pass proc 1 (20), and so on.
	want := []int{0, 1, 2, 0, 0, 1, 0, 2, 1, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestAdvanceAccumulatesClock(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(5)
		}
		if p.Now() != 50 {
			t.Errorf("proc %d clock = %d, want 50", p.ID, p.Now())
		}
	})
	if e.MaxClock() != 50 {
		t.Errorf("makespan = %d, want 50", e.MaxClock())
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine(2)
	var woken bool
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.Block()
			woken = true
			// Clock must have been advanced to at least the
			// waker's clock.
			if p.Now() < 100 {
				t.Errorf("woken proc clock = %d, want >= 100", p.Now())
			}
			return
		}
		p.Advance(100)
		p.Wake(e.Proc(1))
		p.Advance(1)
	})
	if !woken {
		t.Fatal("blocked proc never resumed")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	e := NewEngine(4)
	b := NewBarrier(4, 7)
	e.Run(func(p *Proc) {
		p.Advance(int64(p.ID) * 100) // arrive at different times
		b.Arrive(p)
		// Everyone resumes at max arrival (300) + sync cost (7).
		if p.Now() != 307 {
			t.Errorf("proc %d resumed at %d, want 307", p.ID, p.Now())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine(2)
	b := NewBarrier(2, 1)
	e.Run(func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Advance(int64(p.ID+1) * 3)
			b.Arrive(p)
		}
	})
	if e.Proc(0).Now() != e.Proc(1).Now() {
		t.Errorf("clocks diverged after barrier rounds: %d vs %d", e.Proc(0).Now(), e.Proc(1).Now())
	}
}

// TestBarrierDropReleasesWaiters: dropping a participant that waiters are
// already parked for releases them exactly as a last arrival would — at
// max(arrival clocks) + SyncCost — while the dropper's own clock stays
// untouched (it is leaving the rendezvous, not joining it).
func TestBarrierDropReleasesWaiters(t *testing.T) {
	e := NewEngine(3)
	b := NewBarrier(3, 7)
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(500) // outlive both arrivals, then bow out
			b.Drop(p)
			if p.Now() != 500 {
				t.Errorf("dropper advanced to %d, want 500", p.Now())
			}
			return
		}
		p.Advance(int64(p.ID) * 100)
		b.Arrive(p)
		if p.Now() != 207 { // max arrival 200 + sync cost 7
			t.Errorf("proc %d resumed at %d, want 207", p.ID, p.Now())
		}
	})
}

// TestBarrierDropShrinksLaterRounds: a drop before anyone arrives lowers
// the expected count for every subsequent round, and the barrier stays
// reusable for the survivors.
func TestBarrierDropShrinksLaterRounds(t *testing.T) {
	e := NewEngine(3)
	b := NewBarrier(3, 1)
	e.Run(func(p *Proc) {
		if p.ID == 2 {
			b.Drop(p)
			return
		}
		for round := 0; round < 3; round++ {
			p.Advance(int64(p.ID+1) * 5)
			b.Arrive(p)
		}
	})
	if e.Proc(0).Now() != e.Proc(1).Now() {
		t.Errorf("clocks diverged after dropped-participant rounds: %d vs %d",
			e.Proc(0).Now(), e.Proc(1).Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var panicked atomic.Bool
	e.Run(func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		p.Block() // nobody will ever wake us: must panic, not hang
	})
	if !panicked.Load() {
		t.Fatal("expected deadlock panic")
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine(1)
	var panicked atomic.Bool
	e.Run(func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		p.Advance(-1)
	})
	if !panicked.Load() {
		t.Fatal("expected panic on negative advance")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEngine(5)
		var trace []int
		e.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				trace = append(trace, p.ID)
				// Pseudo-random but deterministic advances.
				p.Advance(int64((p.ID*7+i*13)%23 + 1))
			}
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// stepTrace runs n procs where proc 0 records its schedule via StepWhile
// and the rest advance normally; used to prove StepWhile is schedule-
// equivalent to an explicit Advance loop.
func stepTrace(useStep bool) []int64 {
	e := NewEngine(3)
	var trace []int64
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			steps := 0
			if useStep {
				p.StepWhile(func() (int64, bool) {
					trace = append(trace, p.Now())
					steps++
					if steps > 12 {
						return 0, true
					}
					return 7, false
				})
				return
			}
			for {
				trace = append(trace, p.Now())
				steps++
				if steps > 12 {
					return
				}
				p.Advance(7)
			}
		}
		for s := 0; s < 10; s++ {
			p.Advance(int64(p.ID) * 5)
		}
	})
	return trace
}

func TestStepWhileMatchesAdvanceLoop(t *testing.T) {
	a, b := stepTrace(false), stepTrace(true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: clock %d vs %d (full: %v vs %v)", i, a[i], b[i], a, b)
		}
	}
}

// TestStepWhileInline checks that a parked stepper's turns execute at the
// correct virtual instants while another proc advances past it, and that
// the stepper resumes on its own goroutine at the instant its step function
// reports done.
func TestStepWhileInline(t *testing.T) {
	e := NewEngine(2)
	var observed []int64
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) {
				observed = append(observed, p.Now())
				if p.Now() >= 40 {
					return 0, true
				}
				return 10, false
			})
			if p.Now() != 40 {
				t.Errorf("stepper resumed at clock %d, want 40", p.Now())
			}
			return
		}
		for i := 0; i < 100; i++ {
			p.Advance(1)
		}
	})
	want := []int64{0, 10, 20, 30, 40}
	if len(observed) != len(want) {
		t.Fatalf("observed %v, want %v", observed, want)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed %v, want %v", observed, want)
		}
	}
}

// TestWakeLowersHorizon pins the subtle horizon-refresh rule: waking a proc
// whose clock ties the waker's must prevent the waker's fast path from
// running past it when the woken proc has the smaller ID.
func TestWakeLowersHorizon(t *testing.T) {
	e := NewEngine(2)
	var order []string
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Block()
			order = append(order, "p0-woken")
			return
		}
		p.Advance(5)
		p.Wake(e.Proc(0)) // p0's clock becomes 5, tying ours with smaller ID
		p.Advance(0)      // tie ⇒ p0 (smaller ID) must run first
		order = append(order, "p1-after")
	})
	if len(order) != 2 || order[0] != "p0-woken" || order[1] != "p1-after" {
		t.Fatalf("wrong wakeup schedule: %v", order)
	}
}

// TestStepWhileImmediateDone checks the zero-interaction case: a step
// function that is done on its first call keeps the token without any
// rescheduling.
func TestStepWhileImmediateDone(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		calls := 0
		p.StepWhile(func() (int64, bool) {
			calls++
			return 0, true
		})
		if calls != 1 {
			t.Errorf("proc %d: step called %d times, want 1", p.ID, calls)
		}
	})
}

// recoverValue runs f and returns the value it panicked with, nil if none.
func recoverValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// recoverString runs f and returns the message it panicked with, "" if none.
func recoverString(f func()) string {
	if v := recoverValue(f); v != nil {
		return fmt.Sprint(v)
	}
	return ""
}

// TestPackedKeyOverflowPanics: with 2 procs the key's clock field is 62 bits.
// A clock that outgrows it must panic where the key is built, naming the
// proc and the clock — never wrap into a small key and mis-order.
func TestPackedKeyOverflowPanics(t *testing.T) {
	// Where every key is built: entering the tree.
	e := NewEngine(2)
	q := e.Proc(1)
	q.clock = 1 << 62
	if msg := recoverString(func() { e.push(q) }); !strings.Contains(msg, "proc 1 clock 4611686018427387904") {
		t.Errorf("push of an overflowing clock panicked with %q; want the proc and clock named", msg)
	}
	q.clock = 1<<62 - 1
	if msg := recoverString(func() { e.push(q) }); msg != "" {
		t.Errorf("the largest clock that fits panicked: %s", msg)
	}

	// End to end: proc 1 parks beside proc 0 at 1<<61, so proc 0's second
	// charge crosses the horizon at 1<<62 and must die in Advance's slow
	// path, on its own goroutine, before the tree is touched.
	e = NewEngine(2)
	var stop bool
	var msg string
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) { return 1 << 61, stop })
			return
		}
		p.Advance(1 << 61)
		msg = recoverString(func() { p.Advance(1 << 61) })
		stop = true
	})
	if !strings.Contains(msg, "proc 0 clock 4611686018427387904") {
		t.Errorf("crossing the horizon at an overflowing clock panicked with %q; want the proc and clock named", msg)
	}

	// A single charge too large for the horizon test's unchecked key to
	// stay exact is refused up front.
	e = NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			msg = recoverString(func() { p.Advance(1 << 62) })
		}
	})
	if !strings.Contains(msg, "proc 0 charge 4611686018427387904") {
		t.Errorf("an oversized charge panicked with %q; want the proc and charge named", msg)
	}
}

// TestLoneProcStaysOnFastPath: an empty tree's horizon is the all-ones
// sentinel, which no key reaches — a proc running alone never reschedules,
// even at clocks no key could hold.
func TestLoneProcStaysOnFastPath(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			return
		}
		p.Advance(1) // crosses proc 1's key; proc 1 runs and finishes
		if e.horizon() != noHorizon {
			t.Errorf("horizon %#x with no other ready proc, want the sentinel", e.horizon())
		}
		before := e.stats
		for i := 0; i < 1000; i++ {
			p.Advance(1 << 52) // ends far beyond the 62-bit clock field
		}
		p.StepWhile(func() (int64, bool) { return 1 << 52, p.Now() > 1<<62+1<<61 })
		if e.stats != before {
			t.Errorf("a lone proc left the fast path: counters went %+v -> %+v", before, e.stats)
		}
	})
	if got, min := e.MaxClock(), int64(1<<62); got <= min {
		t.Fatalf("makespan %d, want beyond the key's clock field (%d)", got, min)
	}
}

// TestEngineStats pins the counters on a schedule small enough to trace by
// hand, and requires a rerun to reproduce them.
func TestEngineStats(t *testing.T) {
	run := func() EngineStats {
		e := NewEngine(3)
		var stop bool
		e.Run(func(p *Proc) {
			if p.ID == 0 {
				for i := 0; i < 10; i++ {
					p.Advance(1)
				}
				stop = true
				return
			}
			p.StepWhile(func() (int64, bool) { return 1, stop })
		})
		return e.Stats()
	}
	got := run()
	want := EngineStats{
		// Start-up: proc 0 is granted; its first charge hands over to
		// proc 1, which parks and hands over to proc 2, which parks and
		// hands back. Shutdown: each stepper resumes once to return.
		Grants: 4 + 2,
		// Charges 2..10 each run both steppers inline; then each
		// stepper's final, done turn.
		InlineTurns: 9*2 + 2,
		// 2 to seed the tree, 2 steppers parking, proc 0 on charges
		// 2..10 (on the first it swaps in for proc 1 instead: a re-key).
		Pushes: 2 + 2 + 9,
		Rekeys: 1 + 9*2,
	}
	if got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if again := run(); again != got {
		t.Errorf("rerun stats %+v differ from %+v", again, got)
	}
}
