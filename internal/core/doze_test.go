package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// sweepTurn is one turn of a failing sweep: its clock, the machine's position
// there (−1 a loop top) and the failed sweeps counted before it.
type sweepTurn struct {
	clock  int64
	k      int
	failed int64
}

// stepSweep runs a sweep's machine turn by turn from phase p — the charges and
// k transitions of sweep's step function, with every observation failing and
// the earliest timer deadline at dl (never: no timer) — and returns its turns
// up to the first past until, or up to the loop top at dl, where the timer
// fires and the machine exits.
func stepSweep(n int, steal, poll int64, p sweepPhase, dl, until int64) []sweepTurn {
	k, clock := -1, p.top
	if p.i > 0 {
		k, clock = p.i, p.top+int64(p.i)*steal
	}
	var failed int64
	var turns []sweepTurn
	charge := func(d int64) int64 { // sweepCharge
		if rem := dl - clock; rem < d {
			k = -1
			return max(rem, 0)
		}
		return d
	}
	for clock <= until {
		turns = append(turns, sweepTurn{clock, k, failed})
		var d int64
		switch {
		case k < 0 && dl <= clock:
			return turns
		case k < 0:
			k = 1
			d = charge(steal)
		case k+1 < n: // a failed probe with victims left
			k++
			d = charge(steal)
		default: // the last probe fails: a failed sweep, then a poll
			failed++
			k = -1
			d = charge(poll)
		}
		clock += d
	}
	return turns
}

// keyAfter is after on plain numbers: the first clock at which a turn of
// vproc id follows the waker's turn (wClock, wID).
func keyAfter(id int, wClock int64, wID int) int64 {
	if id < wID {
		return wClock + 1
	}
	return wClock
}

// firstAt returns the first of turns at or after x whose position is k
// (any: anyK), and whether there is one.
func firstAt(turns []sweepTurn, x int64, k int) (sweepTurn, bool) {
	for _, t := range turns {
		if t.clock >= x && (k == anyK || t.k == k) {
			return t, true
		}
	}
	return sweepTurn{}, false
}

const anyK = -2

// TestDozeCatchUp pins the sweep's closed forms on hand-computed turns, then
// holds them to stepSweep on random sweeps: n in [1, 256], PollNs above and
// below StealAttemptNs, phases anywhere in the cycle, no timer or a deadline
// anywhere — on a regular turn too, where a probe and the clamped loop top
// share a clock — and waker keys before, on and between turns, with the
// waker's ID above and below the dozer's. For each it checks the first turn
// after the waker (turn: a wake's target and resume's catch-up), the first
// loop top after it, and the first probe of a random victim after it (next).
func TestDozeCatchUp(t *testing.T) {
	// n = 4 at the default costs: turns at top + {0, 120, 240, 360}, the next
	// loop top 760 later. n = 3 with PollNs < StealAttemptNs: turns at
	// {0, 400, 800}, the next loop top at 920.
	for _, tc := range []struct {
		name        string
		top         int64
		i           int
		dl          int64
		id, n       int
		steal, poll int64
		wClock      int64
		wID         int
		clock       int64
		k           int
		skipped     int64
	}{
		{"waker before the loop top", 1000, 0, never, 2, 4, 120, 400, 500, 0, 1000, -1, 0},
		{"tie at the loop top, waker ID below", 1000, 0, never, 2, 4, 120, 400, 1000, 1, 1000, -1, 0},
		{"tie at the loop top, waker ID above", 1000, 0, never, 2, 4, 120, 400, 1000, 3, 1120, 1, 0},
		{"tie at a probe, waker ID below", 1000, 0, never, 2, 4, 120, 400, 1240, 0, 1240, 2, 0},
		{"tie at a probe, waker ID above", 1000, 0, never, 2, 4, 120, 400, 1240, 3, 1360, 3, 0},
		{"between probes", 1000, 0, never, 2, 4, 120, 400, 1130, 3, 1240, 2, 0},
		{"tie at the last probe wraps", 1000, 0, never, 2, 4, 120, 400, 1360, 3, 1760, -1, 1},
		{"poll gap wraps", 1000, 0, never, 2, 4, 120, 400, 1500, 0, 1760, -1, 1},
		{"cycles later", 1000, 0, never, 2, 4, 120, 400, 3410, 0, 3520, 2, 3},
		{"short poll, waker in the last gap", 0, 0, never, 1, 3, 400, 120, 850, 0, 920, -1, 1},
		{"short poll, tie at the last probe", 0, 0, never, 1, 3, 400, 120, 800, 0, 800, 2, 0},
		{"short poll, tie at the last probe wraps", 0, 0, never, 1, 3, 400, 120, 800, 2, 920, -1, 1},
		{"one vproc probes itself", 0, 0, never, 0, 1, 120, 400, 100, 1, 120, 1, 0},
		{"phase mid-cycle, waker before it", 1000, 2, never, 2, 4, 120, 400, 0, 0, 1240, 2, 0},
		{"phase mid-cycle, next probe", 1000, 2, never, 2, 4, 120, 400, 1300, 0, 1360, 3, 0},
		{"phase mid-cycle wraps", 1000, 2, never, 2, 4, 120, 400, 1361, 0, 1760, -1, 1},
		{"the deadline clamps a probe's charge", 1000, 0, 1300, 2, 4, 120, 400, 1250, 0, 1300, -1, 0},
		{"a probe lands on the deadline", 1000, 0, 1240, 2, 4, 120, 400, 1240, 0, 1240, 2, 0},
		{"the deadline clamps the poll", 1000, 0, 1500, 2, 4, 120, 400, 1400, 0, 1500, -1, 1},
		{"the deadline is the next loop top", 1000, 0, 1760, 2, 4, 120, 400, 1400, 0, 1760, -1, 1},
	} {
		c := newSweepCycle(tc.n, tc.steal, tc.poll)
		p := sweepPhase{tc.top, tc.i, tc.top % c.length}
		x := keyAfter(tc.id, tc.wClock, tc.wID)
		if clock, k, skipped := c.turn(p, tc.dl, x); clock != tc.clock || k != tc.k || skipped != tc.skipped {
			t.Errorf("%s: got (clock %d, k %d, skipped %d), want (%d, %d, %d)", tc.name, clock, k, skipped, tc.clock, tc.k, tc.skipped)
		}
		turns := stepSweep(tc.n, tc.steal, tc.poll, p, tc.dl, x+2*c.length)
		if s, _ := firstAt(turns, x, anyK); s != (sweepTurn{tc.clock, tc.k, tc.skipped}) {
			t.Errorf("%s: stepping gives %+v, want (%d, %d, %d)", tc.name, s, tc.clock, tc.k, tc.skipped)
		}
	}

	rng := NewRand(0xd02e)
	intn := func(n int64) int64 { return int64(rng.Next() % uint64(n)) }
	var ties, wraps, clamps, shared, probes int
	for i := 0; i < 4000; i++ {
		n := 1 + int(intn(256))
		steal, poll := int64(120), int64(400)
		switch i % 3 {
		case 1:
			steal, poll = poll, steal
		case 2:
			steal, poll = 1+intn(500), 1+intn(500)
		}
		c := newSweepCycle(n, steal, poll)
		top := intn(1_000_000)
		p := sweepPhase{top, int(intn(int64(c.probes) + 1)), top % c.length}
		pc := p.top + int64(p.i)*steal
		const cycles = 8
		regular := stepSweep(n, steal, poll, p, never, pc+(cycles+2)*c.length)
		// No timer, a deadline anywhere, one on a regular turn, or one on
		// the phase's own turn.
		dl := int64(never)
		switch intn(4) {
		case 1:
			dl = pc + intn(cycles*c.length)
		case 2:
			dl = regular[intn(int64(len(regular))/2)].clock
		case 3:
			dl = pc
		}
		id := int(intn(int64(n)))
		wID := int(intn(int64(n) + 1)) // n+1 IDs, so the waker differs from the dozer
		if wID == id {
			wID = n
		}
		// Aim the waker at a turn or one off it, into a poll gap, anywhere
		// in the next cycles, or before the phase; never past the deadline.
		var wClock int64
		switch r := intn(6); {
		case r < 3:
			wClock = regular[intn(int64(len(regular))/2)].clock + r - 1
		case r == 3:
			wClock = p.top + intn(cycles)*c.length + int64(c.probes)*steal + intn(poll)
		case r == 4:
			wClock = pc + intn(cycles*c.length)
		default:
			wClock = pc - intn(c.length)
		}
		wClock = min(wClock, dl-1)
		x := keyAfter(id, wClock, wID)
		name := fmt.Sprintf("n %d, steal %d, poll %d, phase %+v, deadline %d, dozer %d, waker %d at %d", n, steal, poll, p, dl, id, wID, wClock)

		real := stepSweep(n, steal, poll, p, dl, x+2*c.length)
		want, _ := firstAt(real, x, anyK)
		if clock, k, skipped := c.turn(p, dl, x); (sweepTurn{clock, k, skipped}) != want {
			t.Fatalf("%s: first turn (clock %d, k %d, skipped %d), stepping gives %+v", name, clock, k, skipped, want)
		}
		loopTop, _ := firstAt(real, x, -1)
		if got := min(c.next(p, x, 0), dl); got != loopTop.clock {
			t.Fatalf("%s: next loop top at %d, stepping gives %d", name, got, loopTop.clock)
		}
		// The first probe of a random victim after the waker, timers aside.
		v := int(intn(int64(n)))
		if j := c.probeIndex(id, v); j != 0 {
			if (id+j)%n != v {
				t.Fatalf("%s: probe index %d of victim %d names victim %d", name, j, v, (id+j)%n)
			}
			probe, _ := firstAt(regular, x, j)
			if got := c.next(p, x, j); got != probe.clock {
				t.Fatalf("%s: first probe of %d (index %d) at %d, stepping gives %d", name, v, j, got, probe.clock)
			}
			probes++
		} else if v != id || n == 1 {
			t.Fatalf("%s: no probe index for victim %d", name, v)
		}

		switch {
		case want.clock == wClock:
			ties++
		case want.k < 0 && want.failed > 0 && want.clock-wClock <= poll:
			wraps++
		}
		if want.clock == dl {
			if len(real) > 1 && real[len(real)-2].clock == dl {
				shared++ // a regular probe at dl, then the loop top there
			} else if _, onTurn := firstAt(regular, dl, anyK); !onTurn || regular[0].clock != dl {
				clamps++
			}
		}
	}
	if ties < 100 || wraps < 100 || clamps < 100 || shared < 20 || probes < 1000 {
		t.Errorf("random cases hit %d waker-clock ties, %d wraps to the next loop top, %d clamped deadline turns, %d probes sharing the deadline's clock and %d probe checks; want at least 100, 100, 100, 20 and 1000",
			ties, wraps, clamps, shared, probes)
	}
}

// TestDozeDeadlockFailsFast: a receive continuation on a channel nobody sends
// to leaves every vproc sweeping for a task that can never come. Without
// dozing the sweeps poll until the clock overflows; with it the last vproc to
// doze finds the ready tree empty, and the run panics at once, naming the
// dozers and the outstanding count.
func TestDozeDeadlockFailsFast(t *testing.T) {
	for _, nv := range []int{1, 4} {
		rt := MustNewRuntime(DefaultConfig(numa.AMD48(), nv))
		ch := rt.NewChannel()
		got := make(chan string, 1)
		go func() {
			defer func() { got <- fmt.Sprint(recover()) }()
			rt.Run(func(vp *VProc) {
				ch.RecvThen(vp, nil, func(*VProc, Env, heap.Addr) {})
			})
		}()
		select {
		case msg := <-got:
			for _, want := range []string{"vtime: deadlock", "dozing", "idle vprocs sweeping for work", "outstanding tasks: 1"} {
				if !strings.Contains(msg, want) {
					t.Errorf("p=%d: panic %q does not say %q", nv, msg, want)
				}
			}
			if strings.Contains(msg, "\n") {
				t.Errorf("p=%d: panic message spans lines: %q", nv, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("p=%d: a run with nothing left to wake its sweeps is still going after 10 s", nv)
		}
	}
}

// dozeDifferential runs the program prog builds three times at nv vprocs:
// with span windows on (SpanWorkers 2), where no idle sweep dozes, under the
// serial engine with dozing off (Runtime.noDoze), and under the serial engine
// with dozing on — so what prog's closures record otherwise is the dozing
// run's. They note what they observe of the simulation (who ran a task, and
// when) through note. It fails unless the three runs agree on the notes, the
// GC event streams, every vproc's clock and statistics, and the runtime's
// statistics, and unless neither run without dozing dozed or moved a dozer.
// It returns the dozing run's runtime, engine counters and notes.
func dozeDifferential(t *testing.T, nv int, prog func(rt *Runtime, note func(...int64)) func(vp *VProc)) (*Runtime, vtime.EngineStats, []int64) {
	t.Helper()
	return dozeDifferentialOn(t, DefaultConfig(numa.AMD48(), nv), prog)
}

// dozeDifferentialOn is dozeDifferential under cfg, whose SpanWorkers it
// sets to 2 and then 1.
func dozeDifferentialOn(t *testing.T, cfg Config, prog func(rt *Runtime, note func(...int64)) func(vp *VProc)) (*Runtime, vtime.EngineStats, []int64) {
	t.Helper()
	runs := []struct {
		name   string
		spans  int
		noDoze bool
	}{{"span windows", 2, false}, {"the serial engine without dozing", 1, true}, {"the serial engine", 1, false}}
	var rts [3]*Runtime
	var notes [3][]int64
	var events [3][]GCEvent
	for i, r := range runs {
		cfg.SpanWorkers = r.spans
		rts[i] = MustNewRuntime(cfg)
		rts[i].noDoze = r.noDoze
		rts[i].SetTracer(func(ev GCEvent) { events[i] = append(events[i], ev) })
		rts[i].Run(prog(rts[i], func(v ...int64) { notes[i] = append(notes[i], v...) }))
	}
	a := rts[2]
	for i, b := range rts[:2] {
		on := runs[i].name
		if !slices.Equal(notes[i], notes[2]) {
			t.Errorf("observations differ on %s:\n  %v\n  %v", on, notes[2], notes[i])
		}
		if !slices.Equal(events[i], events[2]) {
			t.Errorf("GC events differ on %s:\n  %v\n  %v", on, events[2], events[i])
		}
		if a.Stats != b.Stats {
			t.Errorf("runtime statistics differ on %s:\n  %+v\n  %+v", on, a.Stats, b.Stats)
		}
		for j, vp := range a.VProcs {
			if o := b.VProcs[j]; vp.Now() != o.Now() || vp.Stats != o.Stats {
				t.Errorf("vproc %d differs on %s: clock %d vs %d\n  %+v\n  %+v", j, on, vp.Now(), o.Now(), vp.Stats, o.Stats)
			}
		}
		if st := b.Eng.Stats(); st.Dozes+st.Moves != 0 {
			t.Errorf("%d dozes and %d moves on %s", st.Dozes, st.Moves, on)
		}
	}
	return a, a.Eng.Stats(), notes[2]
}

// farTimers arms a fault far past any run's end on every vproc, so that each
// idle sweep has a deadline and dozes inside the ready tree.
func farTimers(rt *Runtime) {
	p := &FaultPlan{}
	for i := range rt.VProcs {
		p.Stall(i, 1<<40, 1)
	}
	rt.InstallFaults(p)
}

// ranBy is a task body that notes the vproc running it and when.
func ranBy(note func(...int64)) func(*VProc, Env) {
	return func(w *VProc, _ Env) { note(int64(w.ID), w.Now()) }
}

// TestDozePushRousesOneProber: seven sweeps doze in the ready tree, each on
// its far timer, when vproc 0 pushes a task. The owner is running, so the
// push moves exactly one dozer — the first to probe vproc 0's queue — to that
// probe, and that dozer steals the task.
func TestDozePushRousesOneProber(t *testing.T) {
	var dozers int
	var moved int64
	rt, st, notes := dozeDifferential(t, 8, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
		farTimers(rt)
		return func(vp *VProc) {
			vp.SleepFor(50_000)
			before := rt.Eng.Stats()
			dozers = len(rt.dozers)
			task := vp.Spawn(ranBy(note))
			after := rt.Eng.Stats()
			moved = after.Moves + after.Wakes - before.Moves - before.Wakes
			vp.SleepFor(50_000)
			vp.Join(task)
		}
	})
	if dozers != 7 || moved != 1 {
		t.Errorf("the push found %d dozers and moved %d of them; want 7 and 1", dozers, moved)
	}
	if steals := rt.TotalStats().Steals; steals != 1 || notes[0] == 0 {
		t.Errorf("%d steals, the task ran on vproc %d; want the prober's 1", steals, notes[0])
	}
	if st.Dozes != 0 {
		t.Errorf("%d sweeps left the ready tree, though every one has a timer", st.Dozes)
	}
}

// TestDozeLockedQueueArmsOnUnlock: vproc 0's queue holds a task while its
// heap is locked (heapBusy), as in a local collection, so every probe of it
// fails and no dozer is woken to make one. The unlock arms the first prober,
// which steals the task at the instant the undozed schedule does.
func TestDozeLockedQueueArmsOnUnlock(t *testing.T) {
	var locked, unlocked int64
	rt, _, _ := dozeDifferential(t, 6, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
		farTimers(rt)
		return func(vp *VProc) {
			vp.SleepFor(20_000)
			vp.heapBusy = true
			before := rt.Eng.Stats().Moves
			task := vp.Spawn(ranBy(note))
			vp.SleepFor(5_000)
			locked = rt.Eng.Stats().Moves - before
			vp.unlockHeap()
			unlocked = rt.Eng.Stats().Moves - before - locked
			vp.SleepFor(5_000)
			vp.Join(task)
		}
	})
	// 5 µs is several cycles of 5 probes each (1 µs at the default costs).
	if locked != 0 || unlocked != 1 {
		t.Errorf("%d probers moved while the heap was locked and %d at the unlock; want 0 and 1", locked, unlocked)
	}
	if steals := rt.TotalStats().Steals; steals != 1 {
		t.Errorf("%d steals, want 1 once the heap is free", steals)
	}
}

// TestDozeStealLeavesWork: vproc 0 pushes two tasks while the others doze.
// The first prober steals one; the pop leaves work behind, so the next prober
// is armed at once and steals the other — not only once the first thief,
// busy with its 5 µs task, sweeps and plans again.
func TestDozeStealLeavesWork(t *testing.T) {
	rt, _, notes := dozeDifferential(t, 8, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
		farTimers(rt)
		return func(vp *VProc) {
			vp.SleepFor(20_000)
			run := ranBy(note)
			a := vp.Spawn(func(w *VProc, e Env) { run(w, e); w.SleepFor(5_000) })
			b := vp.Spawn(run)
			vp.SleepFor(20_000)
			vp.Join(a)
			vp.Join(b)
		}
	})
	if steals := rt.TotalStats().Steals; steals != 2 || len(notes) != 4 || notes[0] == 0 || notes[2] == 0 || notes[0] == notes[2] {
		t.Errorf("%d steals, (vproc, instant) of the runs %v; want two steals by two other vprocs", steals, notes)
	}
}

// TestDozeClaimedTimeoutReplans: vproc 1 parks a RecvThenTimeout and dozes
// until its deadline. Vproc 0 sends around that deadline, at a spread of
// instants (a first send takes about 1.3 µs, most of it before the claim):
// the claim removes the timer, so the dozer's turns from then on no longer
// clamp to it, and the dozer must plan again from its first turn after the
// send — moving it only to its next loop top, clamped by the stale deadline,
// would run that loop top early for some of these instants.
func TestDozeClaimedTimeoutReplans(t *testing.T) {
	const timeout = 30_000
	var moved int
	for delta := int64(1); delta < 3000; delta += 29 {
		_, st, notes := dozeDifferential(t, 2, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
			ch := rt.NewChannel()
			var parked int64
			return func(vp *VProc) {
				task := vp.Spawn(func(w *VProc, _ Env) { // stolen by vproc 1
					parked = w.Now()
					ch.RecvThenTimeout(w, timeout, nil, func(w *VProc, _ Env, _ heap.Addr, ok bool) {
						if ok {
							note(w.Now())
						}
					})
				})
				vp.SleepFor(10_000)
				vp.SleepUntil(parked + timeout - delta)
				ch.Send(vp, vp.PushRoot(vp.AllocRaw([]uint64{7})))
				vp.PopRoots(1)
				vp.Join(task)
			}
		})
		if len(notes) != 0 && st.Moves != 0 {
			moved++
		}
	}
	// A send that claims after the dozer's last turn before the deadline
	// moves nothing: that turn is the deadline's.
	if moved < 20 {
		t.Errorf("the send won and moved the dozer in %d runs; want at least 20", moved)
	}
}

// TestDozeFiredTimersLeaveWork: two of vproc 0's timers fire together in its
// idle sweep. Their continuations arm no prober, since the sweep pops one at
// once; the other is left queued while the first runs for 5 µs, so the sweep
// arms the first prober for it, which steals it at its probe.
func TestDozeFiredTimersLeaveWork(t *testing.T) {
	rt, _, notes := dozeDifferential(t, 8, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
		farTimers(rt)
		return func(vp *VProc) {
			run := ranBy(note)
			for range 2 {
				vp.AtThen(20_000, nil, func(w *VProc, e Env) { run(w, e); w.SleepFor(5_000) })
			}
		}
	})
	if steals := rt.TotalStats().Steals; steals != 1 || len(notes) != 4 || notes[0] == notes[2] {
		t.Errorf("%d steals, (vproc, instant) of the runs %v; want the second continuation stolen", steals, notes)
	}
}

// TestChannelWaitDeadlockFailsFast: a blocking receive, a blocking select and
// a send on a full mailbox that nothing can ever complete end the run with
// the engine's deadlock panic, as a RecvThen does (TestDozeDeadlockFailsFast):
// each parks a continuation and joins it, and the joining sweep dozes with
// nothing left to wake it. Serial engine only: beside span windows sweeps
// never doze, and such a wait polls until the clock runs out.
func TestChannelWaitDeadlockFailsFast(t *testing.T) {
	waits := []struct {
		name string
		wait func(rt *Runtime, vp *VProc)
	}{
		{"Recv", func(rt *Runtime, vp *VProc) { rt.NewChannel().Recv(vp) }},
		{"Select", func(rt *Runtime, vp *VProc) { vp.Select(rt.NewChannel(), rt.NewChannel()) }},
		{"Send", func(rt *Runtime, vp *VProc) {
			mb := rt.NewMailbox(1)
			s := vp.PushRoot(vp.AllocRaw([]uint64{1}))
			mb.Send(vp, s)
			mb.Send(vp, s)
		}},
	}
	for _, w := range waits {
		for _, nv := range []int{1, 4} {
			rt := MustNewRuntime(DefaultConfig(numa.AMD48(), nv))
			got := make(chan string, 1)
			go func() {
				defer func() { got <- fmt.Sprint(recover()) }()
				rt.Run(func(vp *VProc) { w.wait(rt, vp) })
			}()
			select {
			case msg := <-got:
				for _, want := range []string{"vtime: deadlock", "no ready proc", "dozing"} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s, p=%d: panic %q does not say %q", w.name, nv, msg, want)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, p=%d: a wait nothing can complete is still going after 10 s", w.name, nv)
			}
		}
	}
}

// TestDozeChannelWaits is the dozing oracle of the blocking waits: programs
// that wait in Recv, Select and full-mailbox Sends run with span windows on,
// where no sweep dozes, and on the serial engine, where the joining sweeps
// doze, and must agree on every observation, GC event and statistic. The
// serial runs must doze.
func TestDozeChannelWaits(t *testing.T) {
	// word allocates a one-word message and returns its root slot.
	word := func(vp *VProc, v uint64) int { return vp.PushRoot(vp.AllocRaw([]uint64{v})) }
	progs := []struct {
		name string
		nv   int
		// global makes the configuration collect globally often; the
		// program notes the collections run before its wait first.
		global bool
		prog   func(rt *Runtime, note func(...int64)) func(vp *VProc)
	}{
		{"ping-pong", 3, false, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
			ping, pong, quit := rt.NewChannel(), rt.NewChannel(), rt.NewChannel()
			return func(vp *VProc) {
				stolen := false
				echo := vp.Spawn(func(w *VProc, _ Env) {
					stolen = true
					for {
						which, m := w.Select(quit, ping)
						if which == 0 {
							return
						}
						note(int64(w.ID), w.Now(), int64(w.LoadWord(m, 0)))
						pong.Send(w, word(w, w.LoadWord(m, 0)+1))
						w.PopRoots(1)
					}
				})
				for !stolen {
					vp.Compute(1_000)
				}
				for i := uint64(0); i < 20; i++ {
					ping.Send(vp, word(vp, 10*i))
					vp.PopRoots(1)
					m := pong.Recv(vp)
					note(int64(vp.ID), vp.Now(), int64(vp.LoadWord(m, 0)))
				}
				quit.Send(vp, word(vp, 0))
				vp.PopRoots(1)
				vp.Join(echo)
			}
		}},
		{"bounded senders", 4, false, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
			mb := rt.NewMailbox(2)
			return func(vp *VProc) {
				for s := uint64(1); s <= 2; s++ {
					vp.Spawn(func(w *VProc, _ Env) {
						for i := uint64(1); i <= 12; i++ {
							note(int64(w.ID), w.Now(), int64(mb.Send(w, word(w, 1000*s+i))))
							w.PopRoots(1)
						}
					})
				}
				vp.Compute(200_000)
				for range 24 {
					m := mb.Recv(vp)
					note(vp.Now(), int64(vp.LoadWord(m, 0)))
					vp.Compute(3_000)
				}
			}
		}},
		{"global collection while waiting", 2, true, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
			ch := rt.NewChannel()
			return func(vp *VProc) {
				vp.Spawn(func(w *VProc, _ Env) {
					for i := 0; i < 10; i++ {
						b := w.PushRoot(buildTree(w, 6, uint64(i)))
						w.PromoteRoot(b)
						w.PopRoots(1)
						churn(w, 400, 6)
					}
					ch.Send(w, word(w, 99))
					w.PopRoots(1)
				})
				vp.Compute(10_000) // let vproc 1 steal the collector
				note(int64(rt.Stats.GlobalGCs))
				m := ch.Recv(vp)
				note(vp.Now(), int64(vp.LoadWord(m, 0)))
			}
		}},
		{"crash closes a full mailbox", 3, false, func(rt *Runtime, note func(...int64)) func(vp *VProc) {
			mb, replies := rt.NewMailbox(1), rt.NewChannel()
			mb.SetOwner(rt.VProcs[1])
			replies.SetOwner(rt.VProcs[1])
			rt.InstallFaults((&FaultPlan{}).CrashAt(1, 50_000))
			return func(vp *VProc) {
				recv := vp.Spawn(func(w *VProc, _ Env) {
					note(int64(w.ID), int64(replies.Recv(w)), w.Now())
				})
				vp.Compute(5_000)
				s := word(vp, 1)
				note(int64(mb.Send(vp, s)), vp.Now())
				note(int64(mb.Send(vp, s)), vp.Now())
				vp.PopRoots(1)
				vp.Join(recv)
			}
		}},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			cfg := stressConfig(t, p.nv)
			cfg.GlobalTriggerWords = 1 << 30
			if p.global {
				cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
			}
			rt, st, notes := dozeDifferentialOn(t, cfg, p.prog)
			if st.Dozes == 0 {
				t.Error("no sweep dozed on the serial engine")
			}
			if p.global && (notes[0] != 0 || rt.Stats.GlobalGCs == 0) {
				t.Errorf("%d global collections before the wait, %d in all; want them all during it", notes[0], rt.Stats.GlobalGCs)
			}
		})
	}
}
