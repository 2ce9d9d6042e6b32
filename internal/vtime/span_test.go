package vtime

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Property test for the span/window scheduler: random programs of
// Advance/SpanWhile/StepWhile/Block/Wake/Barrier over 4–64 procs must
// produce identical clock traces, final clocks and final private state
// under the serial engine (StepWhile everywhere), SpanWhile at par 1
// (which must never open a window), and SpanWhile at par 2 and 8. Spin
// spans of random lengths constantly exit below the window edge, so the
// early-close commit/rollback/replay path is exercised heavily; poll spans
// exercise frozen-shared-state reads inside windows.

// spanRng is a splitmix64 so the generated program is stable across Go
// versions.
type spanRng uint64

func (r *spanRng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *spanRng) intn(n uint64) int64 { return int64(r.next() % n) }

type spanTraceRec struct {
	id    int
	clock int64
	tag   int64
}

type spanProgResult struct {
	trace  []spanTraceRec
	clocks []int64
	sums   []int64
	max    int64
	stats  SpanStats
	engine EngineStats
	// extraGoroutines is the most goroutines any span step saw beyond
	// those alive before Run and the procs' coroutines. Goroutines of
	// earlier tests can only end meanwhile, which lowers it.
	extraGoroutines int
}

// runSpanProgram executes one random program. All trace appends happen in
// serial (token-holding) code, never inside a span step, so their order is
// exactly the engine's schedule.
func runSpanProgram(seed uint64, par int, useSpans bool) spanProgResult {
	setup := spanRng(seed)
	n := int(4 + setup.next()%61) // 4..64
	phases := int(3 + setup.next()%4)

	e := NewEngine(n)
	e.SetParallel(par)
	bar := NewBarrier(n, 600)
	// flags[phase][pair]: set by the even proc of the pair, polled by the
	// odd proc. blockReady[phase][pair]: set by the even proc immediately
	// before it Blocks, polled by the odd proc before Wake.
	pairs := n / 2
	flags := make([][]bool, phases)
	blockReady := make([][]bool, phases)
	for ph := 0; ph < phases; ph++ {
		flags[ph] = make([]bool, pairs)
		blockReady[ph] = make([]bool, pairs)
	}

	res := spanProgResult{clocks: make([]int64, n), sums: make([]int64, n), extraGoroutines: math.MinInt}
	var ownGoroutines int // set just before Run
	trace := func(p *Proc, tag int64) {
		res.trace = append(res.trace, spanTraceRec{p.ID, p.Now(), tag})
	}

	park := func(p *Proc, fn func() (int64, bool), save, restore func()) {
		if useSpans {
			p.SpanWhile(func() (int64, bool) {
				res.extraGoroutines = max(res.extraGoroutines, runtime.NumGoroutine()-ownGoroutines)
				return fn()
			}, save, restore)
		} else {
			p.StepWhile(fn)
		}
	}

	ownGoroutines = runtime.NumGoroutine() + n
	e.Run(func(p *Proc) {
		rng := spanRng(seed ^ uint64(p.ID+1)*0xA24BAED4963EE407)
		var sum int64
		for ph := 0; ph < phases; ph++ {
			// 1. Random plain advances.
			for i := int64(0); i < 1+rng.intn(3); i++ {
				p.Advance(1 + rng.intn(500))
			}
			trace(p, 1)

			// 2. A spin span with private state: m turns of d, with the
			// counter checkpointed for rollback. If a window rolls this
			// span back and restore were wrong, the replay would exit
			// after the wrong number of turns and the clock trace would
			// diverge.
			m := 1 + rng.intn(40)
			d := 1 + rng.intn(25)
			turns, saved := int64(0), int64(0)
			park(p, func() (int64, bool) {
				if turns >= m {
					return 0, true
				}
				turns++
				return d, false
			}, func() { saved = turns }, func() { turns = saved })
			sum += turns * d
			trace(p, turns)

			// 3. Pair rendezvous through a shared flag: the even proc
			// publishes, the odd proc polls it inside a span (reading
			// shared state frozen during windows).
			if pair := p.ID / 2; pair < pairs {
				if p.ID%2 == 0 {
					p.Advance(1 + rng.intn(300))
					flags[ph][pair] = true
					p.Advance(1 + rng.intn(100))
				} else {
					pd := 1 + rng.intn(30)
					park(p, func() (int64, bool) {
						if flags[ph][pair] {
							return 0, true
						}
						return pd, false
					}, nil, nil)
					trace(p, 3)
				}
			}

			// 4. On odd phases, the even proc blocks and its partner
			// wakes it: the flag is set in the same serial segment as
			// Block, so the poller can only observe it once the sleeper
			// is actually Blocked.
			if ph%2 == 1 {
				if pair := p.ID / 2; pair < pairs {
					if p.ID%2 == 0 {
						blockReady[ph][pair] = true
						p.Block()
					} else {
						wd := 1 + rng.intn(20)
						park(p, func() (int64, bool) {
							if blockReady[ph][pair] {
								return 0, true
							}
							return wd, false
						}, nil, nil)
						p.Wake(e.Proc(p.ID - 1))
					}
				}
			}

			bar.Arrive(p)
			trace(p, 4)
		}
		res.clocks[p.ID] = p.Now()
		res.sums[p.ID] = sum
	})
	res.max = e.MaxClock()
	res.stats = e.SpanStats()
	res.engine = e.Stats()
	return res
}

func diffSpanResults(t *testing.T, label string, want, got spanProgResult) {
	t.Helper()
	if len(want.trace) != len(got.trace) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", label, i, got.trace[i], want.trace[i])
		}
	}
	for i := range want.clocks {
		if want.clocks[i] != got.clocks[i] {
			t.Fatalf("%s: final clock[%d] = %d, want %d", label, i, got.clocks[i], want.clocks[i])
		}
	}
	for i := range want.sums {
		if want.sums[i] != got.sums[i] {
			t.Fatalf("%s: private sum[%d] = %d, want %d", label, i, got.sums[i], want.sums[i])
		}
	}
	if want.max != got.max {
		t.Fatalf("%s: MaxClock = %d, want %d", label, got.max, want.max)
	}
}

// TestSpanSchedulerEquivalence is the fuzz property: for every seed, the
// serial StepWhile program, the SpanWhile program at par 1, and the
// SpanWhile program at par 2 and 8 all produce the same schedule, and
// windows start no goroutine: at every par a span step sees at most the
// goroutines alive before Run and the procs' coroutines.
func TestSpanSchedulerEquivalence(t *testing.T) {
	var windows int64
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial := runSpanProgram(seed, 1, false)
			if serial.stats != (SpanStats{}) {
				t.Fatalf("serial run accumulated span stats: %+v", serial.stats)
			}
			par1 := runSpanProgram(seed, 1, true)
			if par1.stats != (SpanStats{}) {
				t.Fatalf("par 1 opened windows: %+v", par1.stats)
			}
			diffSpanResults(t, "par 1 spans", serial, par1)
			if par1.extraGoroutines > 0 {
				t.Fatalf("par 1: span steps saw %d goroutines beyond the procs'", par1.extraGoroutines)
			}
			if par1.engine != serial.engine {
				t.Fatalf("par 1 is not the serial engine:\n  serial: %+v\n  par 1:  %+v", serial.engine, par1.engine)
			}
			var runs []spanProgResult
			for _, par := range []int{2, 8} {
				got := runSpanProgram(seed, par, true)
				runs = append(runs, got)
				diffSpanResults(t, fmt.Sprintf("par %d", par), serial, got)
				if got.extraGoroutines > 0 {
					t.Fatalf("par %d: span steps saw %d goroutines beyond the procs'", par, got.extraGoroutines)
				}
				windows += got.stats.Windows
				if got.stats.Windows > 0 && got.stats.Spans < 2*got.stats.Windows {
					t.Fatalf("par %d: %d windows with only %d spans (width < 2)", par, got.stats.Windows, got.stats.Spans)
				}
			}
			// Every n >= 2 is the same window schedule.
			if p2, p8 := runs[0], runs[1]; p2.stats != p8.stats || p2.engine != p8.engine {
				t.Fatalf("stats differ between par 2 and par 8:\n  par 2: %+v %+v\n  par 8: %+v %+v", p2.stats, p2.engine, p8.stats, p8.engine)
			}
		})
	}
	if windows == 0 {
		t.Fatal("no windows opened across any seed — the property test is vacuous")
	}
}

// TestReplayedTurnsCounted pins EngineStats.ReplayedTurns on one window
// small enough to trace by hand. Proc 0 charges 100 and waits at the edge;
// proc 1 parks a span of period 10 that exits on its turn at clock 30; proc
// 2 parks a span of period 1. The window opens with both spans at clock 10:
// the first pass runs proc 1's turns at 10, 20 and 30 and proc 2's at
// 10..99, the exit at (30, proc 1) closes it early, and proc 2 is rolled
// back to 10 and replayed below that key — its turns at 10..29.
func TestReplayedTurnsCounted(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		e := NewEngine(3)
		e.SetParallel(par)
		e.Run(func(p *Proc) {
			switch p.ID {
			case 0:
				p.Advance(100)
			case 1:
				n, saved := 0, 0
				p.SpanWhile(func() (int64, bool) {
					if n == 3 {
						return 0, true
					}
					n++
					return 10, false
				}, func() { saved = n }, func() { n = saved })
			case 2:
				p.SpanWhile(func() (int64, bool) { return 1, p.Now() >= 200 }, nil, nil)
			}
		})
		want, wantReplayed := SpanStats{Windows: 1, Spans: 2, SpanTurns: 3 + 90 + 20, CloseExit: 1}, int64(20)
		if par == 1 {
			want, wantReplayed = SpanStats{}, 0
		}
		if got := e.SpanStats(); got != want {
			t.Errorf("par %d: span stats %+v, want %+v", par, got, want)
		}
		if got := e.Stats().ReplayedTurns; got != wantReplayed {
			t.Errorf("par %d: %d replayed turns, want %d", par, got, wantReplayed)
		}
		if got := e.MaxClock(); got != 200 {
			t.Errorf("par %d: makespan %d, want 200", par, got)
		}
	}
}
