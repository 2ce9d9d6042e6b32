package core

import (
	"fmt"
	"math"

	"repro/internal/vtime"
)

// Dozing idle sweeps. A vproc whose steal sweep (sweep, in sched.go) keeps
// failing runs the same cycle of turns over and over: a loop-top turn at some
// instant t that charges StealAttemptNs, then probe turns j = 1..J at
// t + j·StealAttemptNs — J = n−1 victims, or the one probe of itself when
// n = 1 — the last of which counts a failed sweep and charges PollNs, so the
// next loop top falls at t + C, C = J·StealAttemptNs + PollNs (sweepCycle).
// Its earliest timer deadline dl bends that cycle once: the first turn whose
// regular charge would land past dl is clamped onto a loop top at dl, which
// fires the timer. A regular turn that lands exactly on dl runs there
// unclamped, and if it is a probe, the loop top follows it at the same clock.
//
// Most of those turns observe nothing, and a sweep skips them: after every
// turn that ends without an outcome, plan finds the sweep's next turn that
// can observe something and charges straight to it, so the vproc waits in
// the engine's ready tree at that turn's key (a doze); with no such turn it
// leaves the window (vtime.Proc.Doze). The observing turns are:
//
//   - the next loop top, when a loop-top check would fire there: a collection
//     requested or terminating, its own queue non-empty, a pending fault, its
//     limit pointer zeroed, or its joined task done;
//   - the turn at dl, a regular one landing there or the clamped loop top;
//   - its probe of an open queue v — non-empty, its heap not locked
//     (heapBusy) — when it is v's prober: of all the dozers, the one whose
//     next probe of v comes first;
//   - the last probe, while no task is outstanding.
//
// Nothing dozes during a concurrent mark, whose loop tops may have assist
// work at every turn, or with SpanWorkers >= 2: plan writes other vprocs'
// state, which a span step must not, and which windows open is part of the
// span engine's statistics. A test can also turn dozing off on the serial
// engine (Runtime.noDoze), the oracle a dozing run must agree with.
//
// The record keeps the phase — the loop-top clock of the cycle and the index
// of the next turn (its rt.dozers slot) — and dl (dozeState). From those a
// dozer's turns follow in closed form: resume, the first thing its next turn
// does, restores the machine's position there and the failed sweeps of the
// turns it skipped.
//
// Wakes. Whoever changes what a skipped turn would read first brings the
// dozers that can observe the change forward (rouse: vtime.Engine.WakeAt,
// which moves a waiting proc earlier), each to a turn after the running one:
//
//   - enqueue onto an empty queue v: v's owner to its next loop top, and,
//     unless v is locked, v's prober, found by findProber's scan, to its
//     probe of v;
//   - unlockHeap of a non-empty queue v: v's prober to its probe;
//   - a collection request, its termination, the mark start: every dozer to
//     its next loop top;
//   - a task done or lost (release): its joiners to their next loop top;
//     outstanding work at zero: every dozer to its first turn;
//   - a timer added to or removed from a dozer's queue by another vproc
//     (timerArm, cancelTimer, InstallFaults): that dozer to its first turn,
//     where it plans again — the skipped turns' clamps used the old dl.
//
// Pending faults come only from a vproc's own timers, and a limit pointer is
// zeroed only beside a collection request. The continuations a sweep's own
// timers queue arm no prober: the sweep pops one at once, and arms one for
// any other (sweep).
//
// Exactness. Every skipped turn must fail in the schedule without dozing,
// and a failing turn changes only the dozer's clock, position and failed
// sweeps, which resume restores — so every clock, statistic and event is
// bit-identical, and only the engine's host-side counters move. Loop tops and
// last probes are covered by the wakes above, each made during the running
// turn, before any later turn runs. Probes are covered by this invariant:
// whenever v is open, its prober waits for a turn no later than its probe of
// v. It is restored before any later turn runs each time it can break — when
// v opens (enqueue onto an empty queue, unlockHeap of a non-empty one), when
// a vproc dozes (plan: it takes the duty over if it probes first, or keeps it
// if its probe has not moved), and when the prober stops dozing (its own next
// plan, or reassign). Then a probe of an open v is never skipped: the first
// one after v's last such event belongs to the prober, which runs it. A probe
// of a closed queue fails, so skipping it is exact. No barrier release can
// run beside a dozer (every barrier belongs to a collection window, whose
// request wakes them all first), so the running proc is never past a ready
// proc's turn when it moves one.

// never is the clock of a turn that does not come: no timer deadline, or a
// dozer off the ready tree.
const never = math.MaxInt64

// sweepCycle is the shape of a failed sweep's cycle over n vprocs (see the
// comment above).
type sweepCycle struct {
	n, probes int
	steal     int64
	length    int64
}

func newSweepCycle(n int, steal, poll int64) sweepCycle {
	probes := max(n-1, 1)
	return sweepCycle{n: n, probes: probes, steal: steal, length: int64(probes)*steal + poll}
}

// sweepPhase places a sweep's next turn: index i (0 the loop top, j >= 1 the
// probe j) of the cycle whose loop top falls at top (>= 0); res is top modulo
// the cycle's length.
type sweepPhase struct {
	top int64
	i   int
	res int64
}

// phase returns the phase of the turn at clock where the sweep machine stands
// at k: −1 a loop top, else the victim offset about to be probed.
func (c sweepCycle) phase(clock int64, k int) sweepPhase {
	top := clock
	if k < 0 {
		k = 0
	} else {
		top -= int64(k) * c.steal
	}
	return sweepPhase{top, k, top % c.length}
}

// turn returns the sweep's first turn at or after phase p whose clock is at
// least x, with its earliest timer deadline at dl (which x must not pass):
// the turn's clock — a regular turn's, or dl for the loop top the clamp lands
// on — the machine's position k there (−1 a loop top), and the failed sweeps
// the turns from p to it count, one per cycle.
func (c sweepCycle) turn(p sweepPhase, dl, x int64) (clock int64, k int, failed int64) {
	clock, k = p.top+int64(p.i)*c.steal, p.i
	if x > clock {
		m, rem := (x-p.top)/c.length, (x-p.top)%c.length
		k = int((rem + c.steal - 1) / c.steal)
		if k > c.probes {
			m, k = m+1, 0
		}
		clock, failed = p.top+m*c.length+int64(k)*c.steal, m
	}
	if clock > dl {
		clock, k = dl, 0
	}
	if k == 0 {
		k = -1
	}
	return clock, k, failed
}

// next returns the clock of the sweep's first turn at index i, at or after
// phase p, whose clock is at least x, timers aside.
func (c sweepCycle) next(p sweepPhase, x int64, i int) int64 {
	return c.nextMod(p, x, x%c.length, i)
}

// nextMod is next given xr, x modulo the cycle's length, so that a scan over
// many phases divides once: turns at index i fall on the clocks congruent to
// top + i·steal, so the first one from y = max(x, the phase's own turn) on is
// y plus the gap between the residues.
func (c sweepCycle) nextMod(p sweepPhase, x, xr int64, i int) int64 {
	if off := int64(p.i) * c.steal; x < p.top+off {
		x, xr = p.top+off, p.res+off
		if xr >= c.length {
			xr -= c.length
		}
	}
	d := p.res + int64(i)*c.steal - xr
	if d < 0 {
		d += c.length
	} else if d >= c.length {
		d -= c.length
	}
	return x + d
}

// probeIndex returns the index at which vproc id's cycle probes victim v, or
// 0 if it never does: its own queue, which its loop tops watch instead.
func (c sweepCycle) probeIndex(id, v int) int {
	if c.n == 1 {
		return 1
	}
	if j := v - id; j >= 0 {
		return j
	}
	return v - id + c.n
}

// dozeState is an idle sweep's record while it dozes; its phase is in its
// slot of rt.dozers.
type dozeState struct {
	// dl is the deadline of the earliest timer when the sweep dozed, or
	// never; at least the phase's clock.
	dl int64
	// wake is the clock of the turn the engine holds the vproc for; never
	// off the ready tree.
	wake int64
	// at is the vproc's slot in rt.dozers, −1 while it does not doze.
	at int
	// epoch numbers this doze; a duty recorded on a victim (VProc.prober)
	// holds only for the doze that took it.
	epoch uint64
}

// dozer is a slot of rt.dozers: the vproc, its sweep's phase and the task
// the sweep joins (nil: quiescence), kept together for the scans over all
// dozers.
type dozer struct {
	phase sweepPhase
	id    int
	join  *Task
	vp    *VProc
}

// after returns the first clock at which a turn of d follows the running turn
// w in (clock, ID) order.
func after(d *VProc, w *vtime.Proc) int64 {
	if d.ID < w.ID {
		return w.Now() + 1
	}
	return w.Now()
}

// firstTurn returns the clock of dozer d's first turn at or after x: a
// regular one, or the loop top its timer clamp lands on.
func (d *VProc) firstTurn(x int64) int64 {
	clock, _, _ := d.rt.cycle.turn(d.rt.dozers[d.dz.at].phase, d.dz.dl, x)
	return clock
}

// nextLoopTop returns the clock of dozer d's first loop top at or after x.
func (d *VProc) nextLoopTop(x int64) int64 {
	return min(d.rt.cycle.next(d.rt.dozers[d.dz.at].phase, x, 0), d.dz.dl)
}

// plan runs at the end of every sweep turn that found nothing: the machine
// now stands at k and the turn charges d. Unless dozing is off, the vproc
// dozes until its next observing turn (see the comment above) and plan
// returns the charge to it; held says it dozed before this turn, so the duties
// it held must pass on if it does not doze again.
func (vp *VProc) plan(join *Task, k int, d int64, held bool) int64 {
	rt := vp.rt
	g := &rt.global
	if rt.Cfg.SpanWorkers >= 2 || g.marking || rt.noDoze {
		if held {
			rt.reassign(vp, nil)
		}
		return d
	}
	c := &rt.cycle
	now := vp.Now()
	pc := now + d
	z := &vp.dz
	ph := c.phase(pc, k)
	z.dl = never
	if dl, ok := vp.timers.NextDeadline(); ok {
		z.dl = max(dl, pc)
	}
	prev := z.epoch
	rt.dozeEpoch++
	z.epoch, z.at = rt.dozeEpoch, len(rt.dozers)
	rt.dozers = append(rt.dozers, dozer{ph, vp.ID, join, vp})

	wake := z.dl
	top := join != nil && join.done || g.pending || g.termPending || vp.Local.LimitZeroed() || len(vp.pendingFaults) != 0
	if join == nil && rt.outstanding == 0 {
		wake = min(wake, c.next(ph, pc, c.probes))
	}
	for _, v := range rt.VProcs {
		if v.queue.size() == 0 {
			continue
		}
		top = top || v == vp
		j := c.probeIndex(vp.ID, v.ID)
		if j == 0 || v.heapBusy {
			continue
		}
		at := c.next(ph, pc, j)
		if h := v.liveProber(); h != nil {
			if at > v.probeAt || at == v.probeAt && vp.ID > h.ID {
				continue // h probes first, and waits for it
			}
			v.prober, v.proberEpoch, v.probeAt = vp, z.epoch, at
		} else if held && v.prober == vp && v.proberEpoch == prev && v.probeAt == at {
			// Still v's prober: its probe of v has not moved, and a
			// dozer probing first would have taken the duty over.
			v.proberEpoch = z.epoch
		} else if p, pAt := rt.findProber(v); p != vp {
			rt.rouse(p, pAt)
			continue
		}
		wake = min(wake, at)
	}
	if top {
		wake = min(wake, c.next(ph, pc, 0))
	}
	z.wake = wake
	if wake == never {
		vp.proc.Doze()
		return d
	}
	return wake - now
}

// resume runs first on a dozer's next turn, at the clock the engine held it
// for: the vproc stops dozing and gets back the sweep machine's position at
// that turn, −1 for a loop top, with the failed sweeps of the turns it
// skipped counted.
func (vp *VProc) resume() (k int) {
	rt := vp.rt
	z := &vp.dz
	now := vp.Now()
	clock, k, failed := rt.cycle.turn(rt.dozers[z.at].phase, z.dl, now)
	if clock != now {
		panic(fmt.Sprintf("core: vproc %d resumed its sweep at %d, between its turns", vp.ID, now))
	}
	vp.Stats.FailedSteals += failed
	last := len(rt.dozers) - 1
	rt.dozers[z.at] = rt.dozers[last]
	rt.dozers[z.at].vp.dz.at = z.at
	rt.dozers[last] = dozer{}
	rt.dozers = rt.dozers[:last]
	z.at = -1
	return k
}

// rouse brings dozer d's next turn forward to clock, if the engine holds it
// for a later one.
func (rt *Runtime) rouse(d *VProc, clock int64) {
	if clock < d.dz.wake {
		d.dz.wake = clock
		rt.Eng.WakeAt(d.proc, clock)
	}
}

// liveProber returns v's prober while the doze that took the duty lasts.
func (v *VProc) liveProber() *VProc {
	if p := v.prober; p != nil && p.dz.at >= 0 && p.dz.epoch == v.proberEpoch {
		return p
	}
	return nil
}

// findProber records and returns v's prober — the dozer whose next probe of v
// after the running turn comes first — and that probe's clock; nil if no
// dozer probes v.
func (rt *Runtime) findProber(v *VProc) (p *VProc, at int64) {
	c := rt.cycle
	w := rt.Eng.Running()
	vid, wid := v.ID, w.ID
	// A dozer's turns follow w's from x on: x0, or x1 for a smaller ID.
	x0 := w.Now()
	xr0 := x0 % c.length
	x1, xr1 := x0+1, xr0+1
	if xr1 == c.length {
		xr1 = 0
	}
	best := -1
	for i := range rt.dozers {
		d := &rt.dozers[i]
		j := c.probeIndex(d.id, vid)
		if j == 0 {
			continue
		}
		x, xr := x0, xr0
		if d.id < wid {
			x, xr = x1, xr1
		}
		if a := c.nextMod(d.phase, x, xr, j); best < 0 || a < at || a == at && d.id < rt.dozers[best].id {
			best, at = i, a
		}
	}
	if best >= 0 {
		p = rt.dozers[best].vp
		v.proberEpoch, v.probeAt = p.dz.epoch, at
	}
	v.prober = p
	return p, at
}

// armProber gives the open queue v a prober that waits for its probe.
func (rt *Runtime) armProber(v *VProc) {
	if p, at := rt.findProber(v); p != nil {
		rt.rouse(p, at)
	}
}

// reassign passes on the duties of vp, which stopped dozing and does not doze
// again: every open queue it was the prober of gets its next one — except
// skip, the victim it is about to steal from, which stealFrom locks at once
// and whose unlock re-arms it if the pop leaves work there.
func (rt *Runtime) reassign(vp, skip *VProc) {
	if len(rt.dozers) == 0 {
		return
	}
	for _, v := range rt.VProcs {
		if v.prober == vp && v != skip && v.queue.size() != 0 && !v.heapBusy {
			rt.armProber(v)
		}
	}
}

// enqueue pushes t onto vp's work queue. It is the one way work enters a
// deque. A push onto a non-empty queue changes nothing a dozer waits for; onto
// an empty one, the owner's loop top and one probe would now see it — unless
// the owner's sweep is firing its timers (vp.firing), whose continuations it
// pops before any other turn runs (see sweep).
func (vp *VProc) enqueue(t *Task) {
	was := vp.queue.size()
	vp.queue.pushBottom(t)
	rt := vp.rt
	if was != 0 || len(rt.dozers) == 0 {
		return
	}
	if vp.dz.at >= 0 {
		rt.rouse(vp, vp.nextLoopTop(after(vp, rt.Eng.Running())))
	}
	if !vp.heapBusy && !vp.firing {
		rt.armProber(vp)
	}
}

// unlockHeap drops vp's heap lock (heapBusy). A probe of a locked queue
// fails, so no prober watches one; a non-empty queue coming out of the lock
// is what a probe would now see.
func (vp *VProc) unlockHeap() {
	vp.heapBusy = false
	if vp.queue.size() != 0 && len(vp.rt.dozers) != 0 {
		vp.rt.armProber(vp)
	}
}

// release drops the outstanding count of t: a task that completed or was
// lost, or the task of a parked continuation lost with its vproc. At zero
// every dozer's last probe would quiesce; otherwise only a sweep joining t
// sees a change, at its loop top.
func (rt *Runtime) release(t *Task) {
	rt.outstanding--
	if len(rt.dozers) == 0 {
		return
	}
	w := rt.Eng.Running()
	for i := range rt.dozers {
		if s := &rt.dozers[i]; rt.outstanding == 0 {
			rt.rouse(s.vp, s.vp.firstTurn(after(s.vp, w)))
		} else if s.join == t {
			rt.rouse(s.vp, s.vp.nextLoopTop(after(s.vp, w)))
		}
	}
}

// rouseLoopTops brings every dozer forward to its next loop top, which
// observes a collection requested, terminating or starting its mark.
func (rt *Runtime) rouseLoopTops() {
	if len(rt.dozers) == 0 {
		return
	}
	w := rt.Eng.Running()
	for _, s := range rt.dozers {
		rt.rouse(s.vp, s.vp.nextLoopTop(after(s.vp, w)))
	}
}

// timersChanged brings vp, if it dozes, forward to its first turn: another
// vproc added or removed one of its timers, and the turns from there on clamp
// to the new deadline, so it plans again.
func (vp *VProc) timersChanged() {
	if vp.dz.at >= 0 {
		vp.rt.rouse(vp, vp.firstTurn(after(vp, vp.rt.Eng.Running())))
	}
}
