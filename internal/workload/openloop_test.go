package workload

import (
	"math"
	"testing"

	"repro/internal/vtime"
)

// TestOpenLoopPlanRejectsOverflow: a plan whose arrivals could run past the
// clock is rejected before it is drawn (planFits), where it used to wrap
// arrivals negative, and so are delays whose sum wraps int64; a huge gap
// that fits draws increasing arrivals within the room.
func TestOpenLoopPlanRejectsOverflow(t *testing.T) {
	room := vtime.MaxKeyClock(1) / 2
	for _, gap := range []int64{math.MaxInt64, math.MaxInt64 / 2, room / 4} {
		if planFits(1, 8, gap) {
			t.Errorf("8 requests at a mean gap of %d ns fit below %d ns", gap, room)
		}
	}
	if planFits(1, 1, 2, math.MaxInt64, math.MaxInt64) {
		t.Error("delays whose sum wraps int64 fit")
	}
	// Four steps of under 3/2 of MaxInt64/16 each stay below the room.
	if !planFits(1, 4, math.MaxInt64/16) {
		t.Fatalf("4 requests at a mean gap of %d ns do not fit below %d ns", int64(math.MaxInt64/16), room)
	}
	p := planOpenLoop(1, 2, 4, math.MaxInt64/16)
	for c, arrivals := range p.arrival {
		var prev int64
		for r, a := range arrivals {
			if a <= prev || a > room {
				t.Errorf("client %d request %d arrives at %d, not after %d and within %d", c, r, a, prev, room)
			}
			prev = a
		}
	}
}

// TestOpenLoopBurstPlan: a mean gap of 0 (or 1) plans every arrival at
// instant 0, and its shape draws are those of any other gap: the gap draw
// still advances the stream, so LatencySeq replays both.
func TestOpenLoopBurstPlan(t *testing.T) {
	paced := planOpenLoop(7, 3, 9, 400_000)
	for _, gap := range []int64{0, 1} {
		p := planOpenLoop(7, 3, 9, gap)
		for c, arrivals := range p.arrival {
			for r, a := range arrivals {
				if a != 0 {
					t.Errorf("gap %d: client %d request %d arrives at %d, want 0", gap, c, r, a)
				}
				if p.lane[c][r] != paced.lane[c][r] || p.words[c][r] != paced.words[c][r] {
					t.Errorf("gap %d: client %d request %d drew a different shape", gap, c, r)
				}
			}
		}
	}
}
