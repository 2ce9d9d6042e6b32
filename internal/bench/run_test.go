package bench

import (
	"errors"
	"fmt"
	"testing"
)

// TestRunPositional: results land in their own point at any worker count,
// including the GOMAXPROCS default (0) and more workers than points.
func TestRunPositional(t *testing.T) {
	type point struct{ in, out int }
	for _, workers := range []int{0, 1, 3, 16, 200} {
		pts := make([]point, 100)
		for i := range pts {
			pts[i].in = i
		}
		_, err := Run(pts, workers, nil, func(pt *point) (string, error) {
			pt.out = pt.in * 2
			return "", nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, pt := range pts {
			if pt.out != 2*i {
				t.Fatalf("workers=%d: point %d holds %d, want %d", workers, i, pt.out, 2*i)
			}
		}
	}
	if _, err := Run([]point(nil), 4, nil, func(*point) (string, error) { return "", nil }); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
}

// TestRunLowestIndexErrorWins: with several failing points the reported
// error is the lowest-indexed one, whichever worker finishes first, and the
// healthy points are still measured.
func TestRunLowestIndexErrorWins(t *testing.T) {
	type point struct {
		i        int
		measured bool
	}
	for _, workers := range []int{1, 4} {
		pts := make([]point, 12)
		for i := range pts {
			pts[i].i = i
		}
		sevenFailed := make(chan struct{})
		_, err := Run(pts, workers, nil, func(pt *point) (string, error) {
			switch pt.i {
			case 3:
				if workers > 1 {
					<-sevenFailed // fail only after point 7 has, on another worker
				}
				return "", errors.New("point 3")
			case 7:
				close(sevenFailed)
				return "", errors.New("point 7")
			}
			pt.measured = true
			return "", nil
		})
		if err == nil || err.Error() != "point 3" {
			t.Errorf("workers=%d: got error %v, want point 3's", workers, err)
		}
		for _, pt := range pts {
			if pt.i != 3 && pt.i != 7 && !pt.measured {
				t.Errorf("workers=%d: healthy point %d was not measured", workers, pt.i)
			}
		}
	}
}

// TestRunProgressSerialized: progress receives exactly one line per measured
// point and is never called concurrently — it mutates unsynchronized state,
// so the race detector (the CI race job runs this package) catches any
// overlap.
func TestRunProgressSerialized(t *testing.T) {
	pts := make([]int, 64)
	for i := range pts {
		pts[i] = i
	}
	seen := map[string]bool{}
	_, err := Run(pts, 8, func(line string) { seen[line] = true }, func(pt *int) (string, error) {
		if *pt == 5 {
			return "", errors.New("no line for a failed point")
		}
		return fmt.Sprintf("point %d", *pt), nil
	})
	if err == nil {
		t.Fatal("the failing point's error was dropped")
	}
	if len(seen) != len(pts)-1 || seen["point 5"] {
		t.Errorf("progress saw %d distinct lines, want %d (none for the failed point)", len(seen), len(pts)-1)
	}
}
