package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
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

// TestRunPanicBecomesPointError: a panic inside measure — raised directly or
// on a simulated proc, which the engine re-raises on its caller — is that
// point's error, names the point and the value, and competes under the
// lowest-index rule like any other failure; the other points are measured.
func TestRunPanicBecomesPointError(t *testing.T) {
	type point struct {
		i        int
		measured bool
	}
	for _, workers := range []int{1, 4} {
		pts := make([]point, 12)
		for i := range pts {
			pts[i].i = i
		}
		_, err := Run(pts, workers, nil, func(pt *point) (string, error) {
			switch pt.i {
			case 4:
				vtime.NewEngine(8).Run(func(p *vtime.Proc) {
					for i := 0; ; i++ {
						p.Advance(1)
						if p.ID == 5 && i == 3 {
							panic("heap verifier: bad header")
						}
					}
				})
			case 6:
				return "", errors.New("point 6")
			case 9:
				var words []int
				_ = words[pt.i]
			}
			pt.measured = true
			return "", nil
		})
		if want := "bench: point 4 panicked: heap verifier: bad header"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: got error %v, want %q", workers, err, want)
		}
		for _, pt := range pts {
			if healthy := pt.i != 4 && pt.i != 6 && pt.i != 9; pt.measured != healthy {
				t.Errorf("workers=%d: point %d measured=%v, want %v", workers, pt.i, pt.measured, healthy)
			}
		}
	}
}

// TestGuardReportsDeadlock: a program whose idle vprocs have nothing left to
// wake them — a receive continuation on a channel nobody sends to — comes out
// of Guard at once as one line naming the dozing vprocs and the outstanding
// count, which both CLIs print as their one-line exit-1 error.
func TestGuardReportsDeadlock(t *testing.T) {
	rt := core.MustNewRuntime(core.DefaultConfig(numa.AMD48(), 4))
	ch := rt.NewChannel()
	err := Guard(func() {
		rt.Run(func(vp *core.VProc) {
			ch.RecvThen(vp, nil, func(*core.VProc, core.Env, heap.Addr) {})
		})
	})
	if err == nil {
		t.Fatal("Guard returned no error for a deadlocked run")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "panicked: vtime: deadlock") || !strings.Contains(msg, "dozing") ||
		!strings.Contains(msg, "outstanding tasks: 1") || strings.Contains(msg, "\n") {
		t.Errorf("Guard reported %q; want one line naming the dozing vprocs and the outstanding count", msg)
	}
}
