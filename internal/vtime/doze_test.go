package vtime

import (
	"slices"
	"strings"
	"testing"
)

// TestDozeFromOwnLoop: a step that dozes on its first call, still on its
// proc's own stack inside StepWhile, leaves the proc Blocked and out of the
// tree; WakeAt puts it back, its kept step runs inline at exactly the
// woken clock, and StepWhile returns there on the proc's own stack.
func TestDozeFromOwnLoop(t *testing.T) {
	e := NewEngine(2)
	var turns []int64
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) {
				turns = append(turns, p.Now())
				if len(turns) == 1 {
					p.Doze()
					return 5, false
				}
				return 0, true
			})
			if p.Now() != 150 {
				t.Errorf("stepper resumed at clock %d, want 150", p.Now())
			}
			return
		}
		p.Advance(100) // proc 1 runs its first turn, dozes, and hands back
		q := e.Proc(1)
		if q.state != Blocked || q.Now() != 5 || len(readyKeys(e)) != 0 || e.Stats().Dozes != 1 {
			t.Errorf("after the doze: state %d, clock %d, tree %d entries, %d dozes; want Blocked at 5 in an empty tree, 1 doze",
				q.state, q.Now(), len(readyKeys(e)), e.Stats().Dozes)
		}
		e.WakeAt(q, 150)
		p.Advance(100) // crosses 150: the kept step runs inline and is done
	})
	if len(turns) != 2 || turns[0] != 0 || turns[1] != 150 {
		t.Errorf("step turns at %v, want [0 150]", turns)
	}
	if st := e.Stats(); st.Dozes != 1 || st.Wakes != 1 {
		t.Errorf("%d dozes and %d wakes, want 1 and 1", st.Dozes, st.Wakes)
	}
}

// TestDozeFromInlineTurn: a step that dozes on a turn the token holder runs
// inline takes no further turns while another stepper and the holder run on,
// and wakes ahead of the other stepper at the clock WakeAt names. The last
// ready entry dozing empties the tree, and the lone holder is back on the
// fast path.
func TestDozeFromInlineTurn(t *testing.T) {
	e := NewEngine(3)
	var dozer, other []int64
	e.Run(func(p *Proc) {
		switch p.ID {
		case 1:
			p.StepWhile(func() (int64, bool) {
				dozer = append(dozer, p.Now())
				if p.Now() >= 105 {
					return 0, true
				}
				if p.Now() == 20 {
					p.Doze() // an inline turn: proc 0 holds the token
				}
				return 10, false
			})
		case 2:
			p.StepWhile(func() (int64, bool) {
				other = append(other, p.Now())
				return 7, p.Now() >= 140
			})
		default:
			for p.Now() < 100 {
				p.Advance(1)
			}
			// Proc 2 waits at 105: the wake lands in front of it.
			e.WakeAt(e.Proc(1), 102)
			if ks := readyKeys(e); len(ks) != 2 || e.procOf(ks[0]).ID != 1 || e.horizon() != ks[0] {
				t.Errorf("after the wake the tree holds %v (horizon %#x); want proc 1 in front of proc 2", ks, e.horizon())
			}
			for p.Now() < 200 {
				p.Advance(1)
				if len(other) > 0 && other[len(other)-1] >= 140 && e.horizon() != noHorizon {
					t.Errorf("clock %d: both steppers are done but the horizon is %#x", p.Now(), e.horizon())
					break
				}
			}
		}
	})
	// The dozer's turns: 0, 10, 20 (dozes with a 10 ns charge), then the
	// woken turn at 102, then 112 >= 105 ends it.
	if want := []int64{0, 10, 20, 102, 112}; len(dozer) != len(want) || dozer[2] != 20 || dozer[3] != 102 || dozer[4] != 112 {
		t.Errorf("dozer turns at %v, want %v", dozer, want)
	}
	for i, c := range other {
		if c != int64(7*i) {
			t.Fatalf("the other stepper's turn %d ran at %d, want %d: %v", i, c, 7*i, other)
		}
	}
}

// TestDozeEmptiesWindow: the only ready entry dozing on an inline turn
// leaves the tree empty, and the holder runs on alone — the horizon is the
// sentinel, so it never reschedules — until it wakes the dozer.
func TestDozeEmptiesWindow(t *testing.T) {
	e := NewEngine(2)
	var turns int
	e.Run(func(p *Proc) {
		if p.ID == 1 {
			p.StepWhile(func() (int64, bool) {
				turns++
				if turns == 3 {
					p.Doze()
				}
				return 10, turns == 4
			})
			return
		}
		for i := 0; i < 30; i++ {
			p.Advance(1)
		}
		if turns != 3 || len(readyKeys(e)) != 0 || e.horizon() != noHorizon {
			t.Errorf("after the doze: %d turns, tree %v, horizon %#x; want 3 turns and an empty tree", turns, readyKeys(e), e.horizon())
		}
		before := e.Stats()
		p.Advance(1000)
		if e.Stats() != before || turns != 3 {
			t.Errorf("the lone holder left the fast path: %+v -> %+v, %d turns", before, e.Stats(), turns)
		}
		e.WakeAt(e.Proc(1), p.Now())
		p.Advance(1)
	})
	if turns != 4 {
		t.Errorf("the woken step took %d turns in all, want 4", turns)
	}
}

// TestDozeDeadlock: when every proc that is not Done dozes, the ready tree
// is empty with nothing left to wake them; the deadlock panic, raised here
// by the finishing holder, names the dozers and carries the note.
func TestDozeDeadlock(t *testing.T) {
	e := NewEngine(3)
	e.SetDeadlockNote(func() string { return "2 things outstanding" })
	msg := recoverString(func() {
		e.Run(func(p *Proc) {
			if p.ID != 0 {
				p.StepWhile(func() (int64, bool) {
					p.Doze()
					return 1, false
				})
			}
			p.Advance(10)
		})
	})
	if want := "vtime: deadlock — no ready proc; proc 1, 2 dozing (2 things outstanding)"; msg != want {
		t.Errorf("panic %q, want %q", msg, want)
	}
	if !strings.Contains(recoverString(func() { e.WakeAt(e.Proc(0), 0) }), "not blocked") {
		t.Error("WakeAt of a proc that is not blocked did not panic")
	}
}

// TestWakeAtMoves: WakeAt on a proc waiting in the ready tree moves it to an
// earlier clock — to the front, among the rest, as the only entry, and onto
// an equal clock, where the ID decides the order — keeps the tree's shape
// with the horizon at its root, counts a move, and leaves the entry where it
// is for its own clock. A later clock for a waiting proc panics.
func TestWakeAtMoves(t *testing.T) {
	// waiting builds an engine whose procs wait at the given clocks (-1: out).
	waiting := func(clocks ...int64) *Engine {
		e := NewEngine(len(clocks))
		for i, c := range clocks {
			if c >= 0 {
				e.procs[i].clock = c
				e.push(e.procs[i])
			}
		}
		return e
	}
	order := func(e *Engine) (ids []int) {
		for _, k := range readyKeys(e) {
			ids = append(ids, e.procOf(k).ID)
		}
		return ids
	}
	for _, tc := range []struct {
		name   string
		clocks []int64
		p      int
		to     int64
		want   []int
		moves  int64
	}{
		{"back to front", []int64{-1, 10, 20, 30, 40}, 4, 5, []int{4, 1, 2, 3}, 1},
		{"back stays back", []int64{-1, 10, 20, 30, 40}, 4, 35, []int{1, 2, 3, 4}, 1},
		{"front to earlier", []int64{-1, 10, 20, 30, 40}, 1, 0, []int{1, 2, 3, 4}, 1},
		{"the only entry", []int64{-1, 50}, 1, 20, []int{1}, 1},
		{"equal clock, larger ID behind", []int64{-1, -1, 30, 40}, 3, 30, []int{2, 3}, 1},
		{"equal clock, smaller ID in front", []int64{-1, 40, 30}, 1, 30, []int{1, 2}, 1},
		{"own clock", []int64{-1, 10, 20}, 2, 20, []int{1, 2}, 0},
	} {
		e := waiting(tc.clocks...)
		p := e.procs[tc.p]
		e.WakeAt(p, tc.to)
		if got := order(e); !slices.Equal(got, tc.want) || p.clock != tc.to || e.stats.Moves != tc.moves || e.stats.Wakes != 0 {
			t.Errorf("%s: order %v, proc %d at %d, %d moves, %d wakes; want %v, at %d, %d moves, no wake",
				tc.name, got, tc.p, p.clock, e.stats.Moves, e.stats.Wakes, tc.want, tc.to, tc.moves)
		}
		if msg := treeFault(e); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if e.horizon() != readyKeys(e)[0] {
			t.Errorf("%s: horizon %#x, smallest key %#x", tc.name, e.horizon(), readyKeys(e)[0])
		}
	}
	e := waiting(-1, 10)
	if msg := recoverString(func() { e.WakeAt(e.procs[1], 11) }); !strings.Contains(msg, "not blocked") {
		t.Errorf("WakeAt of a waiting proc to a later clock: %q, want the not-blocked panic", msg)
	}
}
