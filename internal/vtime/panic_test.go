package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Panics on a proc's coroutine: they must reach Engine.Run's caller with
// their original value, and the procs still parked when one unwinds must be
// abandoned so that no goroutine of the run is left behind.

// checkGoroutines fails if the run left goroutines behind: Run has stopped
// every coroutine by the time it returns, so the count must be back to what
// it was before. The previous subtest's goroutine may still be on its way
// out, which is why fewer than before is fine.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the run, %d before it", got, before)
	}
}

// TestBodyPanicReachesRunCaller: one of four direct-style procs panics
// while the other three are parked mid-Advance.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := fmt.Errorf("boom")
	e := NewEngine(4)
	unwound := 0
	v := recoverValue(func() {
		e.Run(func(p *Proc) {
			defer func() { unwound++ }()
			for i := 0; ; i++ {
				p.Advance(1)
				if p.ID == 2 && i == 5 {
					panic(boom)
				}
			}
		})
	})
	if v != boom {
		t.Errorf("Run's caller recovered %v, want the body's own panic value", v)
	}
	if unwound != 4 {
		t.Errorf("%d of 4 proc bodies ran their deferred calls", unwound)
	}
	checkGoroutines(t, before)
}

// TestAbandonedProcMayRecover: a body that recovers everything — the
// abandonment sentinel included — still ends, without taking another turn.
func TestAbandonedProcMayRecover(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(3)
	after := 0
	v := recoverValue(func() {
		e.Run(func(p *Proc) {
			if p.ID == 0 {
				p.Advance(3)
				panic("boom")
			}
			func() {
				defer func() { recover() }()
				for {
					p.Advance(1)
				}
			}()
			after++
		})
	})
	if v != "boom" {
		t.Errorf("Run's caller recovered %v, want boom", v)
	}
	if after != 2 {
		t.Errorf("%d of 2 abandoned bodies ran on to their end", after)
	}
	checkGoroutines(t, before)
}

// TestFinishDeadlockReachesRunCaller: the last runnable proc returns while
// another is Blocked, so the deadlock is found by finish, on a coroutine.
func TestFinishDeadlockReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(2)
	msg := recoverString(func() {
		e.Run(func(p *Proc) {
			if p.ID == 1 {
				p.Block()
				t.Error("blocked proc resumed")
				return
			}
			p.Advance(10)
		})
	})
	if !strings.Contains(msg, "vtime: deadlock") || !strings.Contains(msg, "proc 1") {
		t.Errorf("Run's caller recovered %q, want the deadlock panic naming proc 1", msg)
	}
	checkGoroutines(t, before)
}

// TestPanicAbandonsParkedSteppers: procs parked in StepWhile and SpanWhile
// (with windows on) are cleaned up like direct-style ones, whether
// the panic comes from a body or from a step function run inline.
func TestPanicAbandonsParkedSteppers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		par      int
		fromStep bool
	}{
		{"body/serial", 1, false},
		{"body/par2", 2, false},
		{"step/serial", 1, true},
		{"step/par2", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(4)
			e.SetParallel(tc.par)
			v := recoverValue(func() {
				e.Run(func(p *Proc) {
					switch p.ID {
					case 0:
						for i := 0; i < 20; i++ {
							p.Advance(3)
						}
						if !tc.fromStep {
							panic("boom")
						}
						p.Block()
					case 1:
						p.StepWhile(func() (int64, bool) {
							if tc.fromStep && p.Now() > 100 {
								panic("boom")
							}
							return 2, false
						})
					default:
						p.SpanWhile(func() (int64, bool) { return 1, false }, nil, nil)
					}
					t.Errorf("proc %d ran past its park", p.ID)
				})
			})
			if v != "boom" {
				t.Errorf("Run's caller recovered %v, want boom", v)
			}
			checkGoroutines(t, before)
		})
	}
}
