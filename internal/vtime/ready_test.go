package vtime

import (
	"fmt"
	"slices"
	"testing"
)

// readyKeys returns the keys in e's ready tree, ascending: its leaves that
// hold one.
func readyKeys(e *Engine) []uint64 {
	var ks []uint64
	for _, k := range e.tree[len(e.tree)>>1:] {
		if k != noHorizon {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

// treeFault describes the first slot of e's tree that breaks its shape — a
// padding leaf that holds a key, a proc's leaf that holds another key than
// its proc's or the sentinel, an internal node that is not the smaller of
// its children — or returns "".
func treeFault(e *Engine) string {
	t := e.tree
	leaves := len(t) >> 1
	for id, k := range t[leaves:] {
		switch {
		case k == noHorizon:
		case id >= len(e.procs):
			return fmt.Sprintf("padding leaf %d holds %#x", id, k)
		case k != e.key(e.procs[id]):
			return fmt.Sprintf("proc %d's leaf holds %#x, not its key %#x", id, k, e.key(e.procs[id]))
		}
	}
	for i := 1; i < leaves; i++ {
		if t[i] != min(t[2*i], t[2*i+1]) {
			return fmt.Sprintf("node %d holds %#x, its children %#x and %#x", i, t[i], t[2*i], t[2*i+1])
		}
	}
	return ""
}

// readyProcCounts are the engine sizes checkReadyQueue programs pick from:
// every count up to 40, exact powers of two (64, 256: no padding leaf) and
// one past them (65, 257: a tree twice as wide, nearly all padding).
var readyProcCounts = func() []int {
	var ns []int
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 64, 65, 256, 257)
}()

// treeLevels is the depth of the deepest tree readyProcCounts builds.
const treeLevels = 9

// readyCoverage is what checkReadyQueue programs exercised: for each level
// of the replay (0: a leaf and its sibling), each side the replayed path
// arrived from (0: left child), and each winner of the sibling minimum (0:
// the path's value, 1: the sibling's), whether a replay took it; and the
// engine's counters.
type readyCoverage struct {
	replays [treeLevels][2][2]bool
	stats   EngineStats
}

// add merges o into c.
func (c *readyCoverage) add(o readyCoverage) {
	for l := range c.replays {
		for side := range c.replays[l] {
			for w := range c.replays[l][side] {
				c.replays[l][side][w] = c.replays[l][side][w] || o.replays[l][side][w]
			}
		}
	}
	c.stats.Wakes += o.stats.Wakes
	c.stats.Moves += o.stats.Moves
}

// missing lists the (level, side, winner) combinations c lacks.
func (c *readyCoverage) missing() []string {
	var out []string
	for l := range c.replays {
		for side := range c.replays[l] {
			for w, hit := range c.replays[l][side] {
				if !hit {
					out = append(out, fmt.Sprintf("level %d from the %s, %s wins",
						l, [...]string{"left", "right"}[side], [...]string{"path", "sibling"}[w]))
				}
			}
		}
	}
	return out
}

// checkReadyQueue interprets prog as a sequence of operations on an engine's
// ready tree, mirrors every one on a naive model — an unordered set of
// (clock, ID) pairs whose minimum is found by an O(n) scan over the pairs,
// never over packed keys — and requires the two to agree after each
// operation, and in their full extraction order at the end; the tree's shape
// is checked after every operation too. It returns a description of the
// first disagreement, or "", and what the program covered.
//
// prog[0] picks the proc count from readyProcCounts. Each following byte
// pair is an operation: the first byte selects it, the second is its
// argument — the proc pick for push/replace/wake/move, the span marking for
// a span-prefix pop, and the clock (absolute for a push or a replace, an
// increment for a re-key, a doze or a wake, a decrement for a move), drawn
// from a 32-value range so equal clocks, and with them ID tie-breaks, are the
// common case. A re-key is an inline turn's grown key; a replace is
// Advance's swap of an outside proc for the minimum; a doze is an inline turn
// whose step dozed: the minimum leaves the tree, Blocked; a wake returns a
// dozed proc at a clock no earlier than its own; a move brings a proc
// waiting in the tree to an earlier clock (WakeAt on a ready proc). A second
// reads the second-smallest key as dispatch's span gate does; a span-prefix
// marks some procs span-parked and pops the front as spanWindow does. The
// engine is never Run: the primitives are exactly what the token holder
// would call.
func checkReadyQueue(prog []byte) (string, readyCoverage) {
	var cov readyCoverage
	if len(prog) == 0 {
		return "", cov
	}
	n := readyProcCounts[int(prog[0])%len(readyProcCounts)]
	e := NewEngine(n)
	in := make([]bool, n)    // in the tree (and the model)
	dozed := make([]bool, n) // out of it through a doze, until a wake

	// modelMin scans the model for the (clock, ID)-smallest member, skipping
	// not.
	modelMin := func(not *Proc) *Proc {
		var m *Proc
		for i, p := range e.procs {
			if in[i] && p != not && (m == nil || p.clock < m.clock || (p.clock == m.clock && p.ID < m.ID)) {
				m = p
			}
		}
		return m
	}
	// pickProc picks the pick'th proc that is in the tree (with inWindow)
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
	root := func() *Proc { return e.procOf(e.horizon()) }
	// cover records the replays of the paths from the given leaves.
	cover := func(ids ...int) {
		t := e.tree
		for _, id := range ids {
			for i, l := len(t)>>1+id, 0; i > 1; i, l = i>>1, l+1 {
				w := 0
				if t[i>>1] != t[i] {
					w = 1
				}
				cov.replays[l][i&1][w] = true
			}
		}
	}
	agree := func(step int, op string) string {
		for i, p := range e.procs {
			if blocked := p.state == Blocked; blocked != dozed[i] || p.dozing != dozed[i] {
				return fmt.Sprintf("step %d (%s): proc %d state %d, dozing %v; the model says dozed %v", step, op, i, p.state, p.dozing, dozed[i])
			}
		}
		if msg := treeFault(e); msg != "" {
			return fmt.Sprintf("step %d (%s): %s", step, op, msg)
		}
		for i, p := range e.procs {
			if inTree := e.tree[len(e.tree)>>1+i] != noHorizon; inTree != in[i] {
				return fmt.Sprintf("step %d (%s): proc %d in the tree %v, in the model %v", step, op, p.ID, inTree, in[i])
			}
		}
		m := modelMin(nil)
		if m == nil {
			if e.horizon() != noHorizon {
				return fmt.Sprintf("step %d (%s): empty tree has horizon %#x", step, op, e.horizon())
			}
			return ""
		}
		if e.horizon() != e.key(m) {
			return fmt.Sprintf("step %d (%s): horizon %#x is proc %d's, the scan finds proc %d (key %#x)", step, op, e.horizon(), root().ID, m.ID, e.key(m))
		}
		return ""
	}

	step := 0
	for i := 1; i+1 < len(prog); i += 2 {
		step++
		op, arg := prog[i]%9, prog[i+1]
		name := [...]string{"push", "rekey-root", "replace-root", "pop", "doze-root", "wake", "move", "second", "span-prefix"}[op]
		var touched []int
		switch op {
		case opPush:
			p := outProc(arg, false)
			if p == nil {
				continue
			}
			p.clock = int64(arg >> 3)
			in[p.ID] = true
			e.push(p)
			touched = append(touched, p.ID)
		case opRekey: // an inline turn: the minimum's own key grows (or stays)
			if e.horizon() == noHorizon {
				continue
			}
			p := root()
			p.clock += int64(arg >> 3)
			e.rekey(p)
			touched = append(touched, p.ID)
		case opReplace: // Advance's swap: an outside proc takes the minimum's place
			p := outProc(arg, false)
			if e.horizon() == noHorizon || p == nil {
				continue
			}
			out := root()
			in[out.ID] = false
			p.clock = int64(arg >> 3)
			in[p.ID] = true
			e.swap(out, p)
			touched = append(touched, out.ID, p.ID)
		case opPop:
			if e.horizon() == noHorizon {
				continue
			}
			m := modelMin(nil)
			if got := root(); got != m {
				return fmt.Sprintf("step %d (pop): popping proc %d, scan finds proc %d", step, got.ID, m.ID), cov
			}
			in[m.ID] = false
			e.pop(m)
			touched = append(touched, m.ID)
		case opDoze: // an inline turn that dozes: the minimum charges and leaves
			if e.horizon() == noHorizon {
				continue
			}
			p := root()
			p.Doze()
			p.clock += int64(arg >> 3)
			e.pop(p)
			e.sleep(p)
			in[p.ID], dozed[p.ID] = false, true
			touched = append(touched, p.ID)
		case opWake:
			p := outProc(arg, true)
			if p == nil {
				continue
			}
			e.WakeAt(p, p.clock+int64(arg>>3))
			in[p.ID], dozed[p.ID] = true, false
			touched = append(touched, p.ID)
		case opMove: // a waiting proc moved earlier; the model reads its clock
			p := pickProc(arg, true, false)
			if p == nil {
				continue
			}
			e.WakeAt(p, max(0, p.clock-int64(arg>>3)))
			touched = append(touched, p.ID)
		case opSecond: // dispatch's span gate: reads, writes nothing
			if e.horizon() == noHorizon {
				continue
			}
			want := uint64(noHorizon)
			if s := modelMin(root()); s != nil {
				want = e.key(s)
			}
			if got := e.second(root()); got != want {
				return fmt.Sprintf("step %d (second): second-smallest key %#x, the scan finds %#x", step, got, want), cov
			}
		case opSpans: // spanWindow's participants: the span-parked front, in key order
			for _, p := range e.procs {
				p.span = (int(arg)+5*p.ID)%3 == 0
			}
			var want []int
			for m := modelMin(nil); m != nil && m.span; m = modelMin(nil) {
				want = append(want, m.ID)
				in[m.ID] = false
			}
			var got []int
			for _, r := range e.popSpans(nil) {
				got = append(got, r.p.ID)
			}
			for _, p := range e.procs {
				p.span = false
			}
			if !slices.Equal(got, want) {
				return fmt.Sprintf("step %d (span-prefix): popped procs %v, the scan's span-parked front is %v", step, got, want), cov
			}
			touched = got
		}
		if msg := agree(step, name); msg != "" {
			return msg, cov
		}
		cover(touched...)
	}
	for e.horizon() != noHorizon {
		step++
		m := modelMin(nil)
		if got := root(); got != m {
			return fmt.Sprintf("drain step %d: popping proc %d, scan finds proc %d", step, got.ID, m.ID), cov
		}
		in[m.ID] = false
		e.pop(m)
		if msg := agree(step, "drain"); msg != "" {
			return msg, cov
		}
		cover(m.ID)
	}
	cov.stats = e.stats
	return "", cov
}

// readyProg builds a program for checkReadyQueue from (op, arg) pairs; procs
// must be in readyProcCounts.
func readyProg(procs int, ops ...byte) []byte {
	return append([]byte{byte(slices.Index(readyProcCounts, procs))}, ops...)
}

// Operation selectors of a checkReadyQueue program.
const (
	opPush, opRekey, opReplace, opPop, opDoze, opWake, opMove, opSecond, opSpans = 0, 1, 2, 3, 4, 5, 6, 7, 8
)

// readyEdgeCases are the hand-written programs: what the random ones reach
// only by luck.
func readyEdgeCases() map[string][]byte {
	const push, rekey, replace, pop, doze, wake, move, second, spans = opPush, opRekey, opReplace, opPop, opDoze, opWake, opMove, opSecond, opSpans
	// churn: with 3 procs (a four-leaf tree, one padding leaf) a long run of
	// pushes, re-keys, pops and swaps replays every path many times over,
	// with the minimum on both sides of each level.
	var churn []byte
	for i := 0; i < 40; i++ {
		churn = append(churn, push, byte(i*8), push, byte(i*8+8), rekey, 16, pop, 0, rekey, 0, replace, byte(i*8))
	}
	return map[string][]byte{
		"empty":        readyProg(4),
		"empty-ops":    readyProg(4, pop, 0, rekey, 8, replace, 8, second, 0, spans, 0),
		"single":       readyProg(1, push, 40, rekey, 8, second, 0, rekey, 0, spans, 0, pop, 0, push, 0),
		"equal-clocks": readyProg(8, push, 0, push, 1, push, 2, push, 3, push, 4, push, 5, push, 6, push, 7, rekey, 0, rekey, 0, second, 0, pop, 0, replace, 0),
		"push-front":   readyProg(6, push, 248, push, 200, push, 160, push, 80, push, 8, push, 0, second, 0),
		"churn":        readyProg(3, churn...),
		// The last entry dozes, emptying the tree, and wakes at the front.
		// Two of five entries doze and wake into the middle of the order,
		// then the minimum dozes and wakes behind the rest.
		"doze-empty": readyProg(2, push, 8, doze, 16, pop, 0, wake, 0, wake, 24, doze, 0, wake, 8),
		"doze-wake":  readyProg(6, push, 0, push, 64, push, 128, push, 192, push, 248, doze, 80, doze, 8, wake, 80, wake, 160, pop, 0, doze, 0, wake, 240),
		// Procs 3, 0, 2, 1 at clocks 1, 10, 20, 30; then moves of the last
		// entry to the front, of one to its own clock (a no-op), of proc 2
		// onto proc 0's clock (it lands behind: larger ID) and of proc 0
		// onto proc 3's (in front: smaller ID), and of the only entry left.
		"move": readyProg(5, push, 8, push, 80, push, 160, push, 240, move, 253, move, 3, move, 82, move, 72, pop, 0, pop, 0, pop, 0, move, 248),
		// Procs 0, 2, 6, 7, 1, 4, 3, 5 at clocks 0..7. Marking procs 1, 4
		// and 7 span-parked pops nothing; marking 0, 3 and 6 pops proc 0
		// alone, and proc 2 is the edge left behind.
		"span-prefix": readyProg(8, push, 0, push, 8, push, 16, push, 24, push, 32, push, 40, push, 48, push, 56, spans, 1, spans, 0, second, 0, pop, 0),
		// 257 procs: proc 256 is the only leaf right of the root. It enters
		// at clock 31 behind proc 255, moves to clock 0 (the root's right
		// child wins), then re-keys back to 31 (the left child wins).
		"top-right": readyProg(257, push, 255, push, 255, move, 255, second, 0, rekey, 255, second, 0, spans, 2, pop, 0),
		// 64 and 256 procs: full trees, no padding leaf; the last proc
		// enters, wins and leaves.
		"full-64":  readyProg(64, push, 0, push, 255, push, 7, move, 127, second, 0, rekey, 255, pop, 0, pop, 0),
		"full-256": readyProg(256, push, 0, push, 255, push, 7, move, 127, second, 0, rekey, 255, pop, 0, pop, 0),
	}
}

// TestReadyQueueMatchesScan is the differential test of the ready tree
// against the naive min-scan: the edge cases first, then seeded random
// programs at every proc count.
func TestReadyQueueMatchesScan(t *testing.T) {
	var cov readyCoverage
	for name, prog := range readyEdgeCases() {
		msg, c := checkReadyQueue(prog)
		if msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		cov.add(c)
	}

	rng := spanRng(0x5eed)
	for round := 0; round < 10*len(readyProcCounts); round++ {
		prog := make([]byte, 1+2*(50+int(rng.intn(400))))
		for i := range prog {
			prog[i] = byte(rng.next())
		}
		prog[0] = byte(round) // every proc count, ten times
		if round%2 == 1 {
			// Bias half the programs toward re-keys and away from pops,
			// so trees stay full and re-keyed keys land everywhere.
			for i := 1; i+1 < len(prog); i += 2 {
				if prog[i]%9 == opPop && rng.intn(4) != 0 {
					prog[i] = opRekey
				}
			}
		}
		msg, c := checkReadyQueue(prog)
		if msg != "" {
			t.Fatalf("random program %d (%d procs): %s\nprogram: %x", round, readyProcCounts[int(prog[0])%len(readyProcCounts)], msg, prog)
		}
		cov.add(c)
	}
	// Every level of the deepest tree must have been replayed from both
	// sides with both outcomes, and the wakes and the moves exercised, or
	// the programs above no longer test what they claim to.
	if miss := cov.missing(); len(miss) != 0 {
		t.Errorf("no replay covered %v", miss)
	}
	if cov.stats.Wakes < 1000 || cov.stats.Moves < 1000 {
		t.Errorf("random programs made %d wakes and %d moves; want at least 1000 of each", cov.stats.Wakes, cov.stats.Moves)
	}
}

// FuzzReadyQueue lets the fuzzer write the programs TestReadyQueueMatchesScan
// draws at random, seeded with the edge cases and with the committed corpus
// (testdata/fuzz/FuzzReadyQueue: programs on full 40-proc trees, recorded
// against the sorted window this tree replaced, whose inserts all landed far
// from where a lockstep schedule puts them).
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
