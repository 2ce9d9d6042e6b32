package bench

import "testing"

// TestHostAllocBound: a run passes the gate while neither its objects nor
// its bytes exceed the recorded point by more than the point's bound, and
// allocating less always passes.
func TestHostAllocBound(t *testing.T) {
	want := HostAllocPoint{Mallocs: 10_000, AllocBytes: 1_000_000, Bound: 0.02}
	for _, tc := range []struct {
		mallocs, bytes uint64
		ok             bool
	}{
		{10_000, 1_000_000, true},
		{5_000, 500_000, true},
		{10_200, 1_020_000, true},
		{10_201, 1_000_000, false},
		{10_000, 1_020_001, false},
	} {
		got := HostAllocPoint{Mallocs: tc.mallocs, AllocBytes: tc.bytes}
		if got.VirtualEq(want) != tc.ok {
			t.Errorf("%d objects, %d bytes against %d, %d at %g: passes %v, want %v",
				tc.mallocs, tc.bytes, want.Mallocs, want.AllocBytes, want.Bound, !tc.ok, tc.ok)
		}
	}
}

// TestHostAllocPointsAreDistinct: the gate's points have one key each, and
// every serving point is a valid latency point.
func TestHostAllocPointsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range HostAllocPoints() {
		if seen[p.Key()] {
			t.Errorf("%q listed twice", p.Key())
		}
		seen[p.Key()] = true
		if p.serving() {
			if _, _, err := p.point().harness(); err != nil {
				t.Errorf("%s: %v", p.Key(), err)
			}
		}
	}
}
