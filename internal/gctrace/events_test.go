package gctrace

import (
	"fmt"
	"strings"
	"testing"
)

// fakeOutput is a gctrace -events output of n events, event i at instant
// 10*i on vproc i%7, with event skip left out, then a summary.
func fakeOutput(n, skip int, summary string) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i != skip {
			fmt.Fprintf(&b, "[%10d ns] vproc %-2d %-12s %8d words %8d ns\n", 10*i, i%7, "minor", i, 3)
		}
	}
	b.WriteString("benchmark fake\n" + summary)
	return b.String()
}

// TestEventsDivergence: a run that drops one event is narrowed to the window
// holding it, with the last matching event's instant and vproc, the
// baseline's window end, and the run's first event in that window; a run
// whose events all match but whose summary differs says so.
func TestEventsDivergence(t *testing.T) {
	want := digest("fake", []byte(fakeOutput(300, 0, "elapsed 1\n")))
	if want.Events != 300 || len(want.Checkpoints) != 3 || !strings.HasPrefix(want.Checkpoints[2], "3000 6 ") {
		t.Fatalf("digest of 300 events: %d events, checkpoints %q", want.Events, want.Checkpoints)
	}
	if got := digest("fake", []byte(fakeOutput(300, 0, "elapsed 1\n"))); !got.VirtualEq(want) || got.Divergence(want) != "all 300 events match; the summary printed after them differs" {
		t.Errorf("a rerun does not match itself: %+v", got)
	}

	got := digest("fake", []byte(fakeOutput(300, 200, "elapsed 1\n")))
	msg := got.Divergence(want)
	for _, part := range []string{
		"events 1-128 match, the last at 1280 ns on vproc 2",
		"the baseline's events 129-256, which end at 2560 ns on vproc 4, differ",
		"this run's event 129 is [      1290 ns] vproc 3",
	} {
		if got.VirtualEq(want) || !strings.Contains(msg, part) {
			t.Errorf("one dropped event: %q, want it to contain %q", msg, part)
		}
	}

	got = digest("fake", []byte(fakeOutput(300, 0, "elapsed 2\n")))
	if got.VirtualEq(want) || got.Divergence(want) != "all 300 events match; the summary printed after them differs" {
		t.Errorf("another summary: equal %v, %q", got.VirtualEq(want), got.Divergence(want))
	}
}
