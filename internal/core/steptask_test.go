package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/heap"
)

// stepEvent is one thing a recycleCont did: Start, a re-park, or its end.
type stepEvent struct {
	id, vproc int
	at        int64
	what      byte // 'S' started, 'R' re-parked itself, 'D' done
}

// recycleCont is a step continuation that allocates over a few charged turns
// (declining, and rerun direct, when the cost form would collect) and then re-parks
// itself from inside its own Step, reparks times, before it ends: the shape
// of the latency harness's arrival chain.
type recycleCont struct {
	id, turns, reparks int
	log                *[]stepEvent
}

func (c *recycleCont) note(vp *VProc, what byte) {
	*c.log = append(*c.log, stepEvent{c.id, vp.ID, vp.Now(), what})
}

func (c *recycleCont) Start(vp *VProc, which int, msg heap.Addr) {
	if which != -1 || msg != 0 {
		panic(fmt.Sprintf("step continuation %d started with which %d, msg %#x; want a timeout", c.id, which, msg))
	}
	c.turns = 0
	c.note(vp, 'S')
}

func (c *recycleCont) Step(vp *VProc, direct bool) (int64, StepStatus) {
	if c.turns < 3 {
		_, d, ok := vp.CostAllocRaw(c.payload(), direct)
		if !ok {
			return 0, StepDecline
		}
		c.turns++
		return d + 500, StepCharge
	}
	if c.reparks > 0 {
		c.reparks--
		c.note(vp, 'R')
		vp.AtSteps(vp.Now()+2_000, c)
		return 0, StepDone
	}
	c.note(vp, 'D')
	return 0, StepDone
}

// payload is a turn's allocation: enough that the runs collect.
func (c *recycleCont) payload() []uint64 {
	p := make([]uint64, 64)
	p[0], p[1] = uint64(c.id), uint64(c.turns)
	return p
}

// recycleRun is one run of a step-task recycling scenario: what the
// continuations did, the runtime after the run, and the heap check.
type recycleRun struct {
	log []stepEvent
	rt  *Runtime
}

// TestStepTaskRecycling: a step task goes back to its runtime when it ends
// and the next park takes it. Each case runs twice with Config.Debug on,
// which panics on recycling a task that has not ended or was lost (and a
// recycled task's continuation panics if anything runs it); both runs must
// log the same continuations at the same instants on the same vprocs, pass
// VerifyHeap, and leave no task lost to a crash on the free list.
func TestStepTaskRecycling(t *testing.T) {
	arm := func(vp *VProc, log *[]stepEvent, first, n, reparks int) {
		for i := range n {
			vp.AtSteps(vp.Now(), &recycleCont{id: first + i, reparks: reparks, log: log})
		}
	}
	for _, tc := range []struct {
		name string
		nv   int
		run  func(rt *Runtime, log *[]stepEvent)
		// check inspects one run.
		check func(t *testing.T, r recycleRun)
	}{{
		// vproc 0 queues eight step tasks and computes without a
		// safepoint, so the idle vprocs steal and finish them; a second
		// wave then takes the tasks the thieves handed back.
		name: "stolen",
		nv:   4,
		run: func(rt *Runtime, log *[]stepEvent) {
			rt.Run(func(vp *VProc) {
				for wave := range 2 {
					arm(vp, log, 8*wave, 8, 0)
					vp.AllocRawN(2) // the safepoint fires the deadlines
					vp.Compute(200_000)
				}
			})
		},
		check: func(t *testing.T, r recycleRun) {
			if thief := slices.IndexFunc(r.log, func(e stepEvent) bool { return e.what == 'S' && e.vproc != 0 }); thief < 0 {
				t.Errorf("no step task ran on a thief: %v", r.log)
			}
			if n := countWhat(r.log, 'D'); n != 16 {
				t.Errorf("%d step continuations finished, want 16", n)
			}
			if n := len(r.rt.freeSteps); n != 8 {
				t.Errorf("%d step tasks built for two waves of 8, want 8", n)
			}
			if s := r.rt.TotalStats(); s.MinorGCs == 0 || r.rt.StepDeclines().Nursery == 0 {
				t.Errorf("%d minor collections and %+v declines; want the turns to collect", s.MinorGCs, r.rt.StepDeclines())
			}
		},
	}, {
		// vproc 1 steals a task that queues four step tasks and computes
		// past the crash instant: the crash lands at its scheduler loop's
		// top, with the four still queued, so they are lost and never
		// started. Waves on vproc 0 afterwards take only tasks that ended.
		name: "lost",
		nv:   2,
		run: func(rt *Runtime, log *[]stepEvent) {
			rt.InstallFaults((&FaultPlan{}).CrashAt(1, 60_000))
			rt.Run(func(vp *VProc) {
				held := vp.Spawn(func(wvp *VProc, _ Env) {
					arm(wvp, log, 0, 4, 0)
					wvp.AllocRawN(2)
					wvp.Compute(100_000)
				})
				vp.Compute(150_000) // leave the queued step tasks to the crash
				vp.Join(held)
				for wave := range 2 {
					arm(vp, log, 4+4*wave, 4, 1)
					vp.AllocRawN(2)
					vp.Compute(50_000)
				}
			})
		},
		check: func(t *testing.T, r recycleRun) {
			for _, e := range r.log {
				if e.id < 4 {
					t.Errorf("continuation %d, queued on the crashed vproc, ran: %+v", e.id, e)
				}
			}
			if s := r.rt.TotalStats(); s.Crashes != 1 || s.LostTasks != 4 {
				t.Errorf("%d crashes lost %d tasks, want 1 losing the four queued step tasks", s.Crashes, s.LostTasks)
			}
			if n := countWhat(r.log, 'D'); n != 8 {
				t.Errorf("%d step continuations finished after the crash, want 8", n)
			}
		},
	}, {
		// Two continuations re-park themselves five times each from
		// inside their own Step, while the task running them has not
		// ended.
		name: "reparked",
		nv:   2,
		run: func(rt *Runtime, log *[]stepEvent) {
			rt.Run(func(vp *VProc) {
				arm(vp, log, 0, 2, 5)
			})
		},
		check: func(t *testing.T, r recycleRun) {
			if s, re, d := countWhat(r.log, 'S'), countWhat(r.log, 'R'), countWhat(r.log, 'D'); s != 12 || re != 10 || d != 2 {
				t.Errorf("%d starts, %d re-parks, %d ends; want 12, 10, 2", s, re, d)
			}
			if n := len(r.rt.freeSteps); n > 4 {
				t.Errorf("%d step tasks built for 12 parks of two chains, want at most 4", n)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]recycleRun
			for i := range runs {
				cfg := stressConfig(t, tc.nv)
				runs[i].rt = MustNewRuntime(cfg)
				tc.run(runs[i].rt, &runs[i].log)
				if err := runs[i].rt.VerifyHeap(); err != nil {
					t.Fatalf("run %d: heap invariants: %v", i, err)
				}
				for _, s := range runs[i].rt.freeSteps {
					if s.lost || !s.done {
						t.Fatalf("run %d: a step task on the free list is lost %v, done %v", i, s.lost, s.done)
					}
				}
			}
			if !slices.Equal(runs[0].log, runs[1].log) {
				t.Errorf("reruns differ:\n  %v\n  %v", runs[0].log, runs[1].log)
			}
			if a, b := runs[0].rt.TotalStats(), runs[1].rt.TotalStats(); a != b {
				t.Errorf("reruns' stats differ:\n  %+v\n  %+v", a, b)
			}
			tc.check(t, runs[0])
		})
	}
}

func countWhat(log []stepEvent, what byte) int {
	n := 0
	for _, e := range log {
		if e.what == what {
			n++
		}
	}
	return n
}

// TestReleasedStepTaskPanics: a recycled step task's continuation panics on
// every method, so a turn run through a stale reference fails loudly instead
// of running another chain's continuation.
func TestReleasedStepTaskPanics(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	var log []stepEvent
	rt.Run(func(vp *VProc) {
		vp.AtSteps(vp.Now(), &recycleCont{log: &log})
	})
	if len(rt.freeSteps) != 1 {
		t.Fatalf("%d step tasks recycled, want 1", len(rt.freeSteps))
	}
	s, vp := rt.freeSteps[0], rt.VProcs[0]
	for name, use := range map[string]func(){
		"Start": func() { s.cont.Start(vp, -1, 0) },
		"Step":  func() { s.Step(vp, false) },
		"rerun": func() { vp.rerun(s) },
	} {
		func() {
			defer func() {
				if r := recover(); r != errReleasedStepTask {
					t.Errorf("%s on a recycled step task: recovered %v, want %q", name, r, errReleasedStepTask)
				}
			}()
			use()
		}()
	}
}

// decliningCont is a broken step continuation: every turn declines, direct
// or not.
type decliningCont struct{}

func (decliningCont) Start(*VProc, int, heap.Addr)          {}
func (decliningCont) Step(*VProc, bool) (int64, StepStatus) { return 0, StepDecline }

// TestDirectDeclinePanics: a direct turn blocks where its cost form would
// decline, so directTurn panics on a decline instead of spinning — through
// rerun, and from a step task under span windows, whose turns all run direct
// (runTask). Each run fails at once, not at the guard.
func TestDirectDeclinePanics(t *testing.T) {
	const want = "core: a step turn declined with direct set"
	for name, run := range map[string]func(rt *Runtime){
		"rerun": func(rt *Runtime) {
			rt.Run(func(vp *VProc) { vp.rerun(decliningCont{}) })
		},
		"span step task": func(rt *Runtime) {
			rt.Run(func(vp *VProc) {
				vp.AtSteps(vp.Now(), decliningCont{})
				vp.AllocRawN(2) // the safepoint fires the deadline
			})
		},
	} {
		cfg := stressConfig(t, 2)
		cfg.SpanWorkers = 2
		rt := MustNewRuntime(cfg)
		got := make(chan string, 1)
		go func() {
			defer func() { got <- fmt.Sprint(recover()) }()
			run(rt)
		}()
		select {
		case msg := <-got:
			if msg != want {
				t.Errorf("%s: recovered %q, want %q", name, msg, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a direct decline is still running after 10 s", name)
		}
	}
}
