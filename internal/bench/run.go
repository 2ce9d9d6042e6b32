package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run is the one worker pool: it measures every point of pts on a pool of
// workers goroutines (workers < 1 means GOMAXPROCS) and is how Measure and
// the event-digest matrix execute their points. Points are independent
// deterministic simulations, so measure may run them in any order; it fills
// its point in place, which keeps results positional — identical for any
// worker count.
//
// measure returns the point's progress line. Lines stream to progress (when
// non-nil) in completion order, always on the calling goroutine, so progress
// needs no locking of its own. Every point is measured even after a failure,
// so the error returned is deterministic too: the failed point with the
// lowest index. A panic inside measure — the engine raises a simulation's
// panics on the goroutine that called it, so that covers them — fails its
// point like a returned error, naming the point's index and the panic value.
// On success Run returns pts, measured.
func Run[P any](pts []P, workers int, progress func(string), measure func(*P) (string, error)) ([]P, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	errs := make([]error, len(pts))
	measureAt := func(i int) (line string, err error) {
		if perr := Guard(func() { line, err = measure(&pts[i]) }); perr != nil {
			err = fmt.Errorf("bench: point %d %w", i, perr)
		}
		return line, err
	}
	lines := make(chan string, len(pts)) // one send per point: workers never block on progress
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				line, err := measureAt(i)
				if err != nil {
					errs[i] = err
					continue
				}
				lines <- line
			}
		}()
	}
	go func() {
		wg.Wait()
		close(lines)
	}()
	for line := range lines {
		if progress != nil {
			progress(line)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// Guard runs one simulation and returns its panic, if any, as an error
// ("panicked: <value>"). The engine raises a simulation's panics — a proc
// body's, the deadlock report — on the goroutine that called Runtime.Run, so
// wrapping that call is enough; Run guards every point with it, and gctrace
// its single run.
func Guard(simulate func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panicked: %v", v)
		}
	}()
	simulate()
	return nil
}
