package core_test

// Determinism regression: the virtual-time engine contract is that a given
// workload/configuration produces bit-identical virtual results on every
// run, no matter how the Go scheduler interleaves the underlying goroutines.
// This guards the engine's horizon fast path, ready tree, and
// inline-step optimizations (and any future perf work): those may only ever
// change wall-clock time, never virtual time.
//
// The test lives in package core_test because the workloads import core.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
	"repro/internal/workload"
)

type runResult struct {
	elapsedNs int64
	makespan  int64
	check     uint64
	global    core.RTStats
	perVProc  []core.VPStats
	engine    vtime.EngineStats
	spans     vtime.SpanStats
}

// dozes counts the idle sweeps that left the ready tree or were moved in it.
func (r runResult) dozes() int64 { return r.engine.Dozes + r.engine.Moves }

func runWorkloadOnce(t *testing.T, name string, nv int, policy mempage.Policy, scale float64) runResult {
	return runWorkloadPar(t, numa.AMD48(), name, nv, policy, scale, 0)
}

func runWorkloadPar(t *testing.T, topo *numa.Topology, name string, nv int, policy mempage.Policy, scale float64, spanWorkers int) runResult {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(topo, nv)
	cfg.Policy = policy
	cfg.SpanWorkers = spanWorkers
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, scale)
	out := runResult{
		elapsedNs: res.ElapsedNs,
		makespan:  rt.Eng.MaxClock(),
		check:     res.Check,
		global:    rt.Stats,
		engine:    rt.Eng.Stats(),
		spans:     rt.Eng.SpanStats(),
	}
	for _, vp := range rt.VProcs {
		out.perVProc = append(out.perVProc, vp.Stats)
	}
	return out
}

// TestDeterministicRerun runs the same workload/config twice and asserts
// bit-identical makespan, workload result, and per-vproc statistics.
func TestDeterministicRerun(t *testing.T) {
	cases := []struct {
		name   string
		nv     int
		policy mempage.Policy
		scale  float64
	}{
		{"quicksort", 8, mempage.PolicyLocal, 0.25},
		{"barnes-hut", 16, mempage.PolicySingleNode, 0.125},
		{"synthetic", 8, mempage.PolicyInterleaved, 2},
		// Channel-heavy: rendezvous handoffs, parked continuations, and
		// lazy message promotion must all reschedule identically.
		{"server", 12, mempage.PolicyLocal, 1},
		{"server", 8, mempage.PolicyInterleaved, 0.5},
		// Timer-heavy: the open-loop traffic harness drives thousands of
		// virtual-time timers through the clamped idle machines; firing
		// instants and the resulting latencies must be bit-identical.
		{"latency", 16, mempage.PolicyLocal, 0.5},
		{"latency", 8, mempage.PolicyInterleaved, 0.25},
		// Crash-heavy: the replicated serving harness kills a lane-home
		// vproc mid-run, so barrier drops, crashed-heap adoption, owned-
		// channel SendCrashed wakeups, and lost-work accounting must all
		// replay identically.
		{"failover", 12, mempage.PolicyLocal, 0.5},
		{"failover", 8, mempage.PolicyInterleaved, 0.25},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := runWorkloadOnce(t, tc.name, tc.nv, tc.policy, tc.scale)
			b := runWorkloadOnce(t, tc.name, tc.nv, tc.policy, tc.scale)
			if a.elapsedNs != b.elapsedNs {
				t.Errorf("elapsed diverged: %d vs %d", a.elapsedNs, b.elapsedNs)
			}
			if a.makespan != b.makespan {
				t.Errorf("makespan diverged: %d vs %d", a.makespan, b.makespan)
			}
			if a.check != b.check {
				t.Errorf("workload check diverged: %#x vs %#x", a.check, b.check)
			}
			if a.global != b.global {
				t.Errorf("runtime stats diverged:\n  %+v\n  %+v", a.global, b.global)
			}
			for i := range a.perVProc {
				if a.perVProc[i] != b.perVProc[i] {
					t.Errorf("vproc %d stats diverged:\n  %+v\n  %+v", i, a.perVProc[i], b.perVProc[i])
				}
			}
		})
	}
}

// TestSpanWorkersBitIdentical runs full workloads under the serial engine
// and under the span window scheduler and asserts every virtual result —
// makespan, checksum, global and per-vproc statistics — is bit-identical,
// and that the engine's own counters (EngineStats, SpanStats, which
// gctrace -engine and the benchmark's digest report) are the same at par 2
// and par 4. This is the core-layer enforcement of that contract, including
// on a boarded rack topology where idle sweeps cross the far tier. Idle
// sweeps doze only under the serial engine, so this is also the check that
// dozing changes no virtual result.
func TestSpanWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		topo   func() *numa.Topology
		name   string
		nv     int
		policy mempage.Policy
		scale  float64
	}{
		{numa.AMD48, "barnes-hut", 24, mempage.PolicyLocal, 0.125},
		{numa.AMD48, "server", 12, mempage.PolicyInterleaved, 0.5},
		{numa.AMD48, "latency", 16, mempage.PolicyLocal, 0.25},
		// The serving point at full width: every idle sweep has a timer
		// armed and dozes in the ready tree, moved by pushes and claims.
		{numa.AMD48, "latency", 48, mempage.PolicyLocal, 0.5},
		{numa.Rack256, "quicksort", 64, mempage.PolicySingleNode, 0.125},
		// A crash mid-window: barrier drops and retired-heap adoption must
		// be invisible to the span scheduler's worker count.
		{numa.AMD48, "failover", 16, mempage.PolicyLocal, 0.5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial := runWorkloadPar(t, tc.topo(), tc.name, tc.nv, tc.policy, tc.scale, 0)
			if serial.dozes() == 0 {
				t.Errorf("no idle sweep dozed under the serial engine")
			}
			var runs []runResult
			for _, par := range []int{2, 4} {
				got := runWorkloadPar(t, tc.topo(), tc.name, tc.nv, tc.policy, tc.scale, par)
				runs = append(runs, got)
				if got.dozes() != 0 {
					t.Errorf("par %d: %d idle sweeps dozed beside span windows", par, got.dozes())
				}
				if serial.elapsedNs != got.elapsedNs || serial.makespan != got.makespan || serial.check != got.check {
					t.Errorf("par %d: elapsed/makespan/check diverged: (%d,%d,%#x) vs (%d,%d,%#x)",
						par, serial.elapsedNs, serial.makespan, serial.check, got.elapsedNs, got.makespan, got.check)
				}
				if serial.global != got.global {
					t.Errorf("par %d: runtime stats diverged:\n  %+v\n  %+v", par, serial.global, got.global)
				}
				for i := range serial.perVProc {
					if serial.perVProc[i] != got.perVProc[i] {
						t.Errorf("par %d: vproc %d stats diverged:\n  %+v\n  %+v", par, i, serial.perVProc[i], got.perVProc[i])
					}
				}
			}
			// Every n >= 2 is the same window schedule, so the engine's
			// own counters agree too.
			if p2, p4 := runs[0], runs[1]; p2.spans != p4.spans || p2.engine != p4.engine {
				t.Errorf("engine stats differ between par 2 and par 4:\n  par 2: %+v %+v\n  par 4: %+v %+v", p2.spans, p2.engine, p4.spans, p4.engine)
			}
			if runs[0].spans.Windows == 0 {
				t.Errorf("no window opened at par 2")
			}
		})
	}
}
