package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestOpenLoopPlanRejectsOverflow: a plan whose arrivals would run past the
// largest int64 instant panics while it is drawn, where it used to wrap
// arrivals negative; a huge gap that fits still draws increasing arrivals.
func TestOpenLoopPlanRejectsOverflow(t *testing.T) {
	// Each step is at least half the mean gap, so eight steps of either gap
	// pass math.MaxInt64: the first within one step, the second at the end.
	for _, gap := range []int64{math.MaxInt64, math.MaxInt64 / 2} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "arrival plan overflows int64") {
					t.Errorf("gap %d: recovered %v, want the overflow panic", gap, r)
				}
			}()
			planOpenLoop(1, 2, 8, gap)
		}()
	}
	// Four steps of under 3/2 of MaxInt64/8 each stay below MaxInt64.
	p := planOpenLoop(1, 2, 4, math.MaxInt64/8)
	for c, arrivals := range p.arrival {
		var prev int64
		for r, a := range arrivals {
			if a <= prev {
				t.Errorf("client %d request %d arrives at %d, not after %d", c, r, a, prev)
			}
			prev = a
		}
	}
}
