package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOptions selects how one workload is measured.
type runOptions struct {
	seed    uint64
	seconds float64 // time box for the timed rounds
	rounds  int     // > 0 fixes the round count and ignores seconds
	trace   bool
	// traceOut receives the span file of a traced run ("" = none).
	traceOut string
	// quick is the test configuration: one set-up, probes at a fraction
	// of their op counts with a single repeat.
	quick bool
}

// minRounds is the floor on timed rounds of a time-boxed run: one fewer and
// the high percentile has less than ten rounds beyond it.
const minRounds = 22

// setupRepeats is how often set-up runs; setup_s is the median, so a cold
// first pass (page faults, lazy runtime initialisation) does not set it.
const setupRepeats = 5

// --- Calibration kernel ----------------------------------------------------

const (
	calMemSteps  = 20_000_000
	calALUSteps  = 20_000_000
	calTableLen  = 1 << 20 // 8 MiB of uint64
	calTableMask = calTableLen - 1
)

var calSink uint64

// calSample is one run of the calibration kernel: its wall time and the
// process CPU time it used (nothing else runs while it does).
type calSample struct{ wall, cpu time.Duration }

// calibrate runs the fixed calibration kernel: calMemSteps xorshift64 steps
// that each read-modify-write a random word of an 8 MiB table, then
// calALUSteps steps that touch no memory (~65 + ~45 ms on the sizing box).
// The simulator is part cache-missing heap walks and part compute, and a
// neighbour's cache traffic slows only the first part: a memory-only kernel
// over-corrects for it (its ratio to barnes-hut moved 14 % between a quiet
// and a contended hour), a compute-only kernel does not see it at all. The
// kernel takes no locks and allocates nothing. Its wall time is the
// denominator for round wall time; its CPU time, which a neighbour's time
// slice does not inflate but its cache traffic does, is the one for round
// CPU time.
func calibrate(tab []uint64) calSample {
	x := uint64(0x9E3779B97F4A7C15)
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i < calMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&calTableMask] += x
	}
	for i := 0; i < calALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	s := calSample{time.Since(start), cpuTime() - cpu0}
	calSink += x
	return s
}

// --- Host clocks and memory ------------------------------------------------

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// --- Small statistics ------------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// highPercentile returns the highest order statistic with at least ten
// samples beyond it, and which percentile that is; with too few samples for
// that to lie above the median it is the median.
func highPercentile(v []float64) (value, pct float64) {
	n := len(v)
	if n < 22 {
		return median(v), 50
	}
	return sorted(v)[n-11], 100 * float64(n-10) / float64(n)
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	return s[0], s[len(s)-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- Set-up and rounds -----------------------------------------------------

// setupState is what set-up hands to the timed rounds.
type setupState struct {
	want  []uint64  // reference Result.Check per point
	first []outcome // outcome of each point in the warm-up round
	// t1Ns is barnes-hut's p=1 virtual makespan (0 for other workloads).
	t1Ns  int64
	refMs float64
}

// tally counts attempted points and keeps one message per failed check.
type tally struct {
	workload  string
	attempted int
	failures  []string
}

func (t *tally) fail(round, point, format string, args ...any) {
	msg := fmt.Sprintf("workload=%s point=%s round=%s: %s", t.workload, point, round, fmt.Sprintf(format, args...))
	t.failures = append(t.failures, msg)
	fmt.Fprintln(os.Stderr, "FAIL", msg)
}

// setup computes the reference checksums and runs the untimed warm-up
// round. prev, when non-nil, is an earlier set-up whose warm-up outcomes
// this one must reproduce.
func setup(w *workloadDef, seed uint64, tl *tally, prev *setupState) *setupState {
	st := &setupState{want: make([]uint64, len(w.points))}
	refStart := time.Now()
	for i := range w.points {
		p := &w.points[i]
		if p.ref != nil {
			st.want[i] = p.ref(seed)
			continue
		}
		// No exported sequential reference: the check must equal a
		// single-vproc run of the same program on the same inputs.
		one := *p
		one.nv = 1
		one.label = p.label + ".ref1"
		tl.attempted++
		out, err := runPoint(&one, seed, nil, -1)
		if err != nil {
			tl.fail("setup", one.label, "%v", err)
		}
		st.want[i] = out.Check
		st.t1Ns = out.ElapsedNs
	}
	st.refMs = ms(time.Since(refStart))

	st.first = make([]outcome, len(w.points))
	if prev != nil {
		copy(st.first, prev.first)
	}
	runRound(w, seed, st, tl, nil, "warmup", prev == nil)
	return st
}

// runRound makes one serial pass over the point list, checking every point
// against its reference and against the warm-up round's outcome. record
// stores the outcomes as the determinism baseline instead of comparing.
func runRound(w *workloadDef, seed uint64, st *setupState, tl *tally, tr *tracer, round string, record bool) {
	rs := tr.begin("round", "", -1)
	for i := range w.points {
		p := &w.points[i]
		tl.attempted++
		ps := tr.begin("point", p.label, rs)
		out, err := runPoint(p, seed, tr, ps)
		cs := tr.begin("check", p.label, ps)
		bad := p.check(out, st.want[i])
		switch {
		case err != nil:
			tl.fail(round, p.label, "%v", err)
		case bad != "":
			tl.fail(round, p.label, "%s", bad)
		case record:
			st.first[i] = out
		case out != st.first[i]:
			tl.fail(round, p.label, "not deterministic: %+v != warm-up %+v", out, st.first[i])
		}
		tr.end(cs)
		tr.end(ps)
	}
	tr.end(rs)
}

// roundSample is the host-side measurement of one timed round.
type roundSample struct {
	wallMs float64
	cpuMs  float64
	calRel float64 // wall / mean wall of the neighbouring calibration samples
	cpuRel float64 // CPU / mean CPU of the neighbouring calibration samples
	traced bool
}

// measurement is everything one workload run observed.
type measurement struct {
	w          *workloadDef
	gomaxprocs int
	setupS     []float64
	st         *setupState
	rounds     []roundSample
	calMs      []float64
	allocMB    float64 // Go TotalAlloc delta over the timed rounds / rounds
	peakRSSMB  float64
	tl         tally
	tr         *tracer
}

// tracedRounds picks which rounds of a traced run record spans: bit r%64.
// About half do, interleaved with the untraced ones so both see the same
// machine state and their difference is the tracing overhead. The pattern
// is irregular on purpose: the Go collector fires every round or two, and a
// strict alternation would put its cycles on one side.
const tracedRounds uint64 = 0x9E3779B97F4A7C15

// measure runs the protocol on one workload: repeated set-up, then timed
// rounds bracketed by calibration samples.
func measure(w *workloadDef, opt runOptions) (*measurement, error) {
	m := &measurement{w: w, tl: tally{workload: w.name}}
	m.gomaxprocs = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(m.gomaxprocs)

	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		m.st = setup(w, opt.seed, &m.tl, m.st)
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}

	if opt.trace {
		m.tr = newTracer()
	}
	tab := make([]uint64, calTableLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	calibrate(tab) // untimed: the first pass faults the table in
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	calPrev := calibrate(tab)
	m.calMs = append(m.calMs, ms(calPrev.wall))
	for r := 0; ; r++ {
		if opt.rounds > 0 {
			if r >= opt.rounds {
				break
			}
		} else if r >= minRounds && !time.Now().Before(deadline) {
			break
		}
		var tr *tracer
		if opt.trace && tracedRounds>>(r%64)&1 == 1 {
			tr = m.tr
		}
		cpu0, t0 := cpuTime(), time.Now()
		runRound(w, opt.seed, m.st, &m.tl, tr, strconv.Itoa(r), false)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		calNext := calibrate(tab)
		m.calMs = append(m.calMs, ms(calNext.wall))
		m.rounds = append(m.rounds, roundSample{
			wallMs: ms(wall),
			cpuMs:  ms(cpu),
			calRel: 2 * float64(wall) / float64(calPrev.wall+calNext.wall),
			cpuRel: 2 * float64(cpu) / float64(calPrev.cpu+calNext.cpu),
			traced: tr != nil,
		})
		calPrev = calNext
	}

	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(m.rounds)) / (1 << 20)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.peakRSSMB = rss
	if m.tr != nil && opt.traceOut != "" {
		if err := m.tr.write(opt.traceOut, w.name); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pick projects the samples of the traced or untraced rounds.
func (m *measurement) pick(traced bool, f func(roundSample) float64) []float64 {
	var out []float64
	for _, r := range m.rounds {
		if r.traced == traced {
			out = append(out, f(r))
		}
	}
	return out
}

func calRel(r roundSample) float64 { return r.calRel }
func cpuRel(r roundSample) float64 { return r.cpuRel }
func cpuMs(r roundSample) float64  { return r.cpuMs }
func wallMs(r roundSample) float64 { return r.wallMs }
