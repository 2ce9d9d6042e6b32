package vtime

import (
	"fmt"
	"testing"
)

// checkReadyQueue interprets prog as a sequence of operations on an engine's
// ready window, mirrors every one on a naive model — an unordered set of
// (clock, ID) pairs whose minimum is found by an O(n) scan over the pairs,
// never over packed keys — and requires the two to agree after each
// operation and in their full extraction order at the end. It returns a
// description of the first disagreement, or "", and the engine's counters so
// a caller can tell which insert paths the program reached.
//
// prog[0] picks the proc count (1..40, so windows reach past the insert's
// linear probe and its fallback runs). Each following byte pair is an
// operation: the first byte selects it, the second is its argument — the
// proc pick for push/replace/wake/move, and the clock (absolute for a push or
// a replace, an increment for a re-key, a doze or a wake, a decrement for a
// move), drawn from a 32-value range so equal clocks, and with them ID
// tie-breaks, are the common case. A doze is an inline turn whose step
// dozed: the minimum leaves the window, Blocked; a wake returns a dozed proc
// at a clock no earlier than its own; a move brings a proc waiting in the
// window to an earlier clock (WakeAt on a ready proc). The engine is never
// Run: the primitives are exactly what the token holder would call.
func checkReadyQueue(prog []byte) (string, EngineStats) {
	if len(prog) == 0 {
		return "", EngineStats{}
	}
	n := 1 + int(prog[0])%40
	e := NewEngine(n)
	in := make([]bool, n)    // in the window (and the model)
	dozed := make([]bool, n) // out of it through a doze, until a wake

	// modelMin scans the model for the (clock, ID)-smallest member.
	modelMin := func() *Proc {
		var m *Proc
		for i, p := range e.procs {
			if in[i] && (m == nil || p.clock < m.clock || (p.clock == m.clock && p.ID < m.ID)) {
				m = p
			}
		}
		return m
	}
	// pickProc picks the pick'th proc that is in the window (with inWindow)
	// or outside it and has not dozed (or, with wantDozed, has), nil if
	// there is none.
	pickProc := func(pick byte, inWindow, wantDozed bool) *Proc {
		var out []*Proc
		for i, p := range e.procs {
			if in[i] == inWindow && dozed[i] == wantDozed {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out[int(pick)%len(out)]
	}
	outProc := func(pick byte, wantDozed bool) *Proc { return pickProc(pick, false, wantDozed) }
	agree := func(step int, op string) string {
		for i, p := range e.procs {
			if blocked := p.state == Blocked; blocked != dozed[i] || p.dozing != dozed[i] {
				return fmt.Sprintf("step %d (%s): proc %d state %d, dozing %v; the model says dozed %v", step, op, i, p.state, p.dozing, dozed[i])
			}
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		if len(e.ready) != size {
			return fmt.Sprintf("step %d (%s): window holds %d entries, model %d", step, op, len(e.ready), size)
		}
		for i, k := range e.ready {
			if p := e.procOf(k); k != e.key(p) || !in[p.ID] {
				return fmt.Sprintf("step %d (%s): entry %d key %#x is not the key %#x of proc %d (in the model: %v)", step, op, i, k, e.key(p), p.ID, in[p.ID])
			}
			if i > 0 && e.ready[i-1] >= k {
				return fmt.Sprintf("step %d (%s): window unsorted at %d", step, op, i)
			}
		}
		m := modelMin()
		if m == nil {
			if e.horizon != noHorizon {
				return fmt.Sprintf("step %d (%s): empty window has horizon %#x", step, op, e.horizon)
			}
			return ""
		}
		if e.procOf(e.ready[0]) != m {
			return fmt.Sprintf("step %d (%s): window minimum is proc %d, scan finds proc %d", step, op, e.procOf(e.ready[0]).ID, m.ID)
		}
		if e.horizon != e.key(m) {
			return fmt.Sprintf("step %d (%s): horizon %#x, minimum key %#x", step, op, e.horizon, e.key(m))
		}
		return ""
	}

	step := 0
	for i := 1; i+1 < len(prog); i += 2 {
		step++
		op, arg := prog[i]%7, prog[i+1]
		name := [...]string{"push", "rekey-root", "replace-root", "pop", "doze-root", "wake", "move"}[op]
		switch op {
		case 0:
			p := outProc(arg, false)
			if p == nil {
				continue
			}
			p.clock = int64(arg >> 3)
			in[p.ID] = true
			e.push(p)
		case 1: // an inline turn: the minimum's own key grows (or stays)
			if len(e.ready) == 0 {
				continue
			}
			p := e.procOf(e.ready[0])
			p.clock += int64(arg >> 3)
			e.replaceRoot(p)
		case 2: // Advance's swap: an outside proc takes the minimum's place
			p := outProc(arg, false)
			if len(e.ready) == 0 || p == nil {
				continue
			}
			in[e.procOf(e.ready[0]).ID] = false
			p.clock = int64(arg >> 3)
			in[p.ID] = true
			e.replaceRoot(p)
		case 3:
			if len(e.ready) == 0 {
				continue
			}
			m := modelMin()
			if got := e.procOf(e.ready[0]); got != m {
				return fmt.Sprintf("step %d (pop): popping proc %d, scan finds proc %d", step, got.ID, m.ID), e.stats
			}
			in[m.ID] = false
			e.popRoot()
		case 4: // an inline turn that dozes: the minimum charges and leaves
			if len(e.ready) == 0 {
				continue
			}
			p := e.procOf(e.ready[0])
			p.Doze()
			p.clock += int64(arg >> 3)
			e.dozeRoot(p)
			in[p.ID], dozed[p.ID] = false, true
		case 5:
			p := outProc(arg, true)
			if p == nil {
				continue
			}
			e.WakeAt(p, p.clock+int64(arg>>3))
			in[p.ID], dozed[p.ID] = true, false
		case 6: // a waiting proc moved earlier; the model reads its clock
			p := pickProc(arg, true, false)
			if p == nil {
				continue
			}
			e.WakeAt(p, max(0, p.clock-int64(arg>>3)))
		}
		if msg := agree(step, name); msg != "" {
			return msg, e.stats
		}
	}
	for len(e.ready) > 0 {
		step++
		m := modelMin()
		if got := e.procOf(e.ready[0]); got != m {
			return fmt.Sprintf("drain step %d: popping proc %d, scan finds proc %d", step, got.ID, m.ID), e.stats
		}
		in[m.ID] = false
		e.popRoot()
		if msg := agree(step, "drain"); msg != "" {
			return msg, e.stats
		}
	}
	return "", e.stats
}

// readyProg builds a program for checkReadyQueue from (op, arg) pairs.
func readyProg(procs int, ops ...byte) []byte {
	return append([]byte{byte(procs - 1)}, ops...)
}

// Operation selectors of a checkReadyQueue program.
const (
	opPush, opRekey, opReplace, opPop, opDoze, opWake, opMove = 0, 1, 2, 3, 4, 5, 6
)

// readyEdgeCases are the hand-written programs: what the random ones reach
// only by luck.
func readyEdgeCases() map[string][]byte {
	const push, rekey, replace, pop, doze, wake, move = opPush, opRekey, opReplace, opPop, opDoze, opWake, opMove
	// slide: with 3 procs the buffer holds 8 entries, so a long run of
	// pop-then-push (and of re-keys, which also consume a slot each) walks
	// the window off the buffer's end many times over, with inserts landing
	// on both sides of each slide.
	var slide []byte
	for i := 0; i < 40; i++ {
		slide = append(slide, push, byte(i*8), push, byte(i*8+8), rekey, 16, pop, 0, rekey, 0, replace, byte(i*8))
	}
	return map[string][]byte{
		"empty":        readyProg(4),
		"empty-ops":    readyProg(4, pop, 0, rekey, 8, replace, 8),
		"single":       readyProg(1, push, 40, rekey, 8, rekey, 0, pop, 0, push, 0),
		"equal-clocks": readyProg(8, push, 0, push, 1, push, 2, push, 3, push, 4, push, 5, push, 6, push, 7, rekey, 0, rekey, 0, pop, 0, replace, 0),
		"push-front":   readyProg(6, push, 248, push, 200, push, 160, push, 80, push, 8, push, 0),
		"slide":        readyProg(3, slide...),
		// The last entry dozes, emptying the window, and wakes at the front.
		// Two of five entries doze and wake into the middle of the window,
		// then a front entry dozes and wakes at the back.
		"doze-empty": readyProg(2, push, 8, doze, 16, pop, 0, wake, 0, wake, 24, doze, 0, wake, 8),
		"doze-wake":  readyProg(6, push, 0, push, 64, push, 128, push, 192, push, 248, doze, 80, doze, 8, wake, 80, wake, 160, pop, 0, doze, 0, wake, 240),
		// Procs 3, 0, 2, 1 at clocks 1, 10, 20, 30; then moves of the back
		// entry to the front, of one to its own clock (a no-op), of proc 2
		// onto proc 0's clock (it lands behind: larger ID) and of proc 0
		// onto proc 3's (in front: smaller ID), and of the only entry left.
		"move": readyProg(5, push, 8, push, 80, push, 160, push, 240, move, 253, move, 3, move, 82, move, 72, pop, 0, pop, 0, pop, 0, move, 248),
	}
}

// TestReadyQueueMatchesScan is the differential test of the sorted ready
// window against the naive min-scan: the edge cases first, then seeded
// random programs at every proc count.
func TestReadyQueueMatchesScan(t *testing.T) {
	for name, prog := range readyEdgeCases() {
		if msg, _ := checkReadyQueue(prog); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}

	var far, near, wakes, moves int64
	rng := spanRng(0x5eed)
	for round := 0; round < 400; round++ {
		prog := make([]byte, 1+2*(50+int(rng.intn(400))))
		for i := range prog {
			prog[i] = byte(rng.next())
		}
		prog[0] = byte(round) // every proc count, ten times
		if round%2 == 1 {
			// Bias half the programs toward re-keys and away from pops,
			// so windows stay full and far landings are common.
			for i := 1; i+1 < len(prog); i += 2 {
				if prog[i]%7 == opPop && rng.intn(4) != 0 {
					prog[i] = opRekey
				}
			}
		}
		msg, st := checkReadyQueue(prog)
		if msg != "" {
			t.Fatalf("random program %d (%d procs): %s\nprogram: %x", round, 1+int(prog[0])%40, msg, prog)
		}
		far += st.FarInserts
		near += st.Pushes + st.Rekeys - st.FarInserts
		wakes += st.Wakes
		moves += st.Moves
	}
	// Both insert paths, the wakes and the moves must have been exercised,
	// or the programs above no longer test what they claim to.
	if far < 1000 || near < 1000 || wakes < 1000 || moves < 1000 {
		t.Errorf("random programs made %d probe inserts, %d fallback inserts, %d wakes and %d moves; want at least 1000 of each", near, far, wakes, moves)
	}
}

// FuzzReadyQueue lets the fuzzer write the programs TestReadyQueueMatchesScan
// draws at random, seeded with the edge cases and with the committed corpus
// (testdata/fuzz/FuzzReadyQueue: full 40-proc windows whose inserts all take
// the fallback).
func FuzzReadyQueue(f *testing.F) {
	for _, prog := range readyEdgeCases() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if msg, _ := checkReadyQueue(prog); msg != "" {
			t.Fatal(msg)
		}
	})
}
