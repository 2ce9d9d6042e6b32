package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/numa"
)

// stepCatchUp is dozeCatchUp by brute force: it runs a failed sweep's machine
// turn by turn from the loop top at c0 — the charge and k transitions of
// sweep's step function with every observation failing — until the first turn
// that follows the waker's (wClock, wID) in (clock, ID) order.
func stepCatchUp(c0 int64, id int, wClock int64, wID, n int, steal, poll int64) (clock int64, k int, skipped int64) {
	clock, k = c0, -1
	for clock < wClock || clock == wClock && id < wID {
		switch {
		case k < 0: // loop top: every check fails, the first probe is next
			k = 1
			clock += steal
		case k+1 < n: // a failed probe with victims left
			k++
			clock += steal
		default: // the last probe fails: a failed sweep, then a poll
			skipped++
			k = -1
			clock += poll
		}
	}
	return clock, k, skipped
}

// TestDozeCatchUp pins the closed form on hand-computed turns, then holds it
// to stepCatchUp on random sweeps: n in [1, 256], both orders of the two cost
// constants, doze instants, and waker keys that fall before, on and between
// turns, with the waker's ID above and below the dozer's.
func TestDozeCatchUp(t *testing.T) {
	// n = 4 at the default costs: turns at c0 + {0, 120, 240, 360}, the next
	// loop top 760 later. n = 3 with PollNs < StealAttemptNs: turns at
	// {0, 400, 800}, the next loop top at 920.
	for _, tc := range []struct {
		name        string
		c0          int64
		id, n       int
		steal, poll int64
		wClock      int64
		wID         int
		clock       int64
		k           int
		skipped     int64
	}{
		{"waker before the loop top", 1000, 2, 4, 120, 400, 500, 0, 1000, -1, 0},
		{"tie at the loop top, waker ID below", 1000, 2, 4, 120, 400, 1000, 1, 1000, -1, 0},
		{"tie at the loop top, waker ID above", 1000, 2, 4, 120, 400, 1000, 3, 1120, 1, 0},
		{"tie at a probe, waker ID below", 1000, 2, 4, 120, 400, 1240, 0, 1240, 2, 0},
		{"tie at a probe, waker ID above", 1000, 2, 4, 120, 400, 1240, 3, 1360, 3, 0},
		{"between probes", 1000, 2, 4, 120, 400, 1130, 3, 1240, 2, 0},
		{"tie at the last probe wraps", 1000, 2, 4, 120, 400, 1360, 3, 1760, -1, 1},
		{"poll gap wraps", 1000, 2, 4, 120, 400, 1500, 0, 1760, -1, 1},
		{"cycles later", 1000, 2, 4, 120, 400, 3410, 0, 3520, 2, 3},
		{"short poll, waker in the last gap", 0, 1, 3, 400, 120, 850, 0, 920, -1, 1},
		{"short poll, tie at the last probe", 0, 1, 3, 400, 120, 800, 0, 800, 2, 0},
		{"short poll, tie at the last probe wraps", 0, 1, 3, 400, 120, 800, 2, 920, -1, 1},
		{"one vproc probes itself", 0, 0, 1, 120, 400, 100, 1, 120, 1, 0},
	} {
		clock, k, skipped := dozeCatchUp(tc.c0, tc.id, tc.wClock, tc.wID, tc.n, tc.steal, tc.poll)
		if clock != tc.clock || k != tc.k || skipped != tc.skipped {
			t.Errorf("%s: got (clock %d, k %d, skipped %d), want (%d, %d, %d)", tc.name, clock, k, skipped, tc.clock, tc.k, tc.skipped)
		}
		if c, kk, s := stepCatchUp(tc.c0, tc.id, tc.wClock, tc.wID, tc.n, tc.steal, tc.poll); c != tc.clock || kk != tc.k || s != tc.skipped {
			t.Errorf("%s: stepping gives (clock %d, k %d, skipped %d), want (%d, %d, %d)", tc.name, c, kk, s, tc.clock, tc.k, tc.skipped)
		}
	}

	rng := NewRand(0xd02e)
	intn := func(n int64) int64 { return int64(rng.Next() % uint64(n)) }
	var ties, wraps int
	for i := 0; i < 4000; i++ {
		n := 1 + int(intn(256))
		steal, poll := int64(120), int64(400)
		switch i % 3 {
		case 1:
			steal, poll = poll, steal
		case 2:
			steal, poll = 1+intn(500), 1+intn(500)
		}
		probes := int64(max(n-1, 1))
		cycle := probes*steal + poll
		c0 := intn(1_000_000)
		id := int(intn(int64(n)))
		wID := int(intn(int64(n) + 1)) // n+1 IDs, so the waker differs from the dozer
		if wID == id {
			wID = n
		}
		// Aim the waker at a turn of one of the next 20 cycles, or one off it,
		// or into a poll gap, or anywhere in those cycles, or before the doze
		// instant.
		var wClock int64
		switch r, m := intn(6), intn(20); {
		case r < 3:
			wClock = c0 + m*cycle + intn(probes+1)*steal + r - 1
		case r == 3:
			wClock = c0 + m*cycle + probes*steal + intn(poll)
		case r == 4:
			wClock = c0 + intn(20*cycle)
		default:
			wClock = c0 - intn(cycle)
		}
		want, wantK, wantSkipped := stepCatchUp(c0, id, wClock, wID, n, steal, poll)
		clock, k, skipped := dozeCatchUp(c0, id, wClock, wID, n, steal, poll)
		if clock != want || k != wantK || skipped != wantSkipped {
			t.Fatalf("n %d, steal %d, poll %d, dozer %d at %d, waker %d at %d: got (clock %d, k %d, skipped %d), stepping gives (%d, %d, %d)",
				n, steal, poll, id, c0, wID, wClock, clock, k, skipped, want, wantK, wantSkipped)
		}
		if want == wClock {
			ties++
		}
		if k < 0 && skipped > 0 && want-wClock <= poll && want > wClock {
			wraps++
		}
	}
	if ties < 100 || wraps < 100 {
		t.Errorf("random cases hit %d waker-clock ties and %d wraps to the next loop top; want at least 100 of each", ties, wraps)
	}
}

// TestDozeDeadlockFailsFast: a receive continuation on a channel nobody sends
// to leaves every vproc sweeping for a task that can never come. Without
// dozing the sweeps poll until the clock overflows; with it the last vproc to
// doze finds the ready window empty, and the run panics at once, naming the
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
