// Package vtime provides a deterministic virtual-time execution engine.
//
// Each virtual processor runs as a coroutine, and execution is serialized by
// a token: at any moment exactly one proc executes "user" code, and the token
// is always handed to the ready proc with the smallest virtual clock (ties
// broken by proc ID). This makes every simulation run fully deterministic
// regardless of the Go scheduler, while letting runtime and workload code be
// written in ordinary direct style. All modelled work is charged through
// Advance, whose call sites double as the safepoints of the simulated
// runtime.
//
// # Engine internals: one thread of control, horizon, tournament tree, steps
//
// The engine needs no mutex and stays out of the Go scheduler: there is one
// thread of control. Every proc body runs inside an iter.Pull coroutine and
// Run, on its caller's goroutine, is the driver: it resumes the proc that
// holds the token, and a holder that must hand the token on records its
// successor in Engine.next and yields back to the driver, which resumes that
// one. A resume or a yield is a direct switch from one goroutine to the
// other — nothing is queued, parked or woken — so all scheduler state
// (clocks, states, the ready tree and with it the horizon) is read and
// written in plain program order and nothing needs publishing. A panic that
// escapes a proc body (a deadlock found as it finishes included) is
// re-raised by the resume, on Run's caller, and Run abandons the procs still
// parked so that none of their goroutines outlives it. A proc's scheduling
// key packs (clock, ID) into one integer, clock<<idBits | ID, so every
// lexicographic comparison the engine makes is a single integer compare.
// Four performance ideas are layered on that discipline:
//
//   - Horizon fast path. The engine caches the smallest ready key among the
//     procs NOT holding the token — the horizon; an empty ready set is the
//     all-ones sentinel no key can reach. The holder provably remains the
//     global minimum until its own key crosses the horizon, because no other
//     proc's clock can change while it runs (procs already in the ready
//     tree are suspended; procs can only enter the ready set through the
//     holder's own barrier releases and wakes, which lower the horizon).
//     Advance therefore degenerates to a plain local add plus one comparison
//     while the new key stays below the horizon — no lock, no scan, no
//     coroutine switch.
//
//   - Tournament tree. The keys of the ready procs other than the token
//     holder sit in a winner tree over proc slots (Knuth, TAOCP vol. 3,
//     §5.4.1): proc id's leaf is slot 2^idBits+id, an absent proc's leaf and
//     every padding leaf hold the sentinel, and each internal node holds the
//     smaller of its two children, so the root is the horizon. Every change
//     to the ready set — a push, an inline turn's re-key, the holder swapping
//     in for a departing minimum, a pop, a doze, WakeAt's move to an earlier
//     key — is one primitive, set: write the leaf and replay the ⌈log₂ n⌉
//     sibling minima up to the root (six at 48 procs). Nothing shifts, and the
//     cost does not depend on where a key lands. It is a winner tree, not a
//     loser tree, because a move lowers the key of a leaf that is not the
//     winner, which a loser tree cannot replay from that leaf alone.
//
//   - Inline steps. A proc whose next actions are a pure observe-and-charge
//     loop (idle polling, steal probing, spin waits) can suspend into a step
//     function via StepWhile. While parked, its turns are executed inline by
//     whichever proc holds the token: scheduling the proc calls the step
//     function instead of switching to its coroutine. In idle-heavy phases
//     this collapses the token ping-pong between pollers into plain
//     function calls — the dominant wall-clock cost of the naive engine.
//
//   - Dozing. A step function that knows its next turns can observe nothing
//     until some other proc mutates what it watches calls Doze: the engine
//     applies that turn's charge and takes the proc out of the ready tree,
//     Blocked with its step kept, so those turns cost nothing at all. The
//     caller that owns the watched state puts it back with WakeAt at the
//     first turn it would have taken after the mutator's (Running) — a
//     closed form only the caller knows — and the step runs on from there.
//     A step that knows which later turn is the first to observe anything
//     charges straight to it instead and waits in the tree; WakeAt moves it
//     earlier when a mutation makes an earlier turn observing.
//
// The schedule produced is bit-identical to the naive "scan all procs each
// Advance" engine: keys are unique (IDs break clock ties) and packing
// preserves their order (an overflowing clock panics where the key is
// built), so the tree's root is exactly the minimum the scan would find
// and the extraction order is a function of the key set alone — not of the
// structure that holds it, which is why the sorted window and the 4-ary
// heap the tree replaced produced the very same schedules. The fast path
// only skips reschedules that would have kept the holder running anyway,
// and a step function runs exactly when (in virtual time) its proc would
// have been scheduled — only on a different stack. A doze skips only turns
// that change nothing but the dozer's own clock and counters, which the
// dozer restores when it runs again.
//
// # Span windows
//
// With SetParallel(n >= 2) the engine generalizes the horizon fast path from
// one proc to a set: when the ready minimum is parked via SpanWhile (a step
// machine declared interaction-free), the engine takes the conservative
// window edge E — the smallest key among ready procs that are NOT
// span-parked, i.e. the root once the span-parked procs before it are
// popped — and runs those procs' turns below E span by span, in rounds of
// bounded slices rather than in key order, on the driving thread.
// The span-safety contract (see SpanWhile) guarantees shared simulation
// state is frozen for the whole window, so each span's turns compute exactly
// what the serial interleaving would. If a span's step reports done below
// the edge, its proc must resume on its own stack and may then mutate shared
// state; the window therefore closes at the earliest such exit B (in key
// order): the exiting proc is committed, every other participant is rolled
// back to its window-entry checkpoint (SpanWhile's save/restore hooks) and
// deterministically replayed below B. Either way every clock the window
// publishes is the clock the serial engine would have produced, so
// schedules, GC stats and histograms are the serial engine's. Every n >= 2
// selects the same window schedule, so SpanStats and EngineStats agree
// across them too; n == 1 never opens a window and is byte-for-byte the
// serial engine.
package vtime

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// State is the scheduling state of a Proc.
type State int

const (
	// Ready procs compete for the execution token.
	Ready State = iota
	// Blocked procs wait in a Barrier until a running proc releases them.
	Blocked
	// Done procs have finished their body.
	Done
)

// Proc is one serialized virtual processor.
type Proc struct {
	ID    int
	eng   *Engine
	clock int64
	state State

	// The body's coroutine (see Run): the driver resumes it, the body
	// yields from yieldTo, and stop abandons it while it is parked there.
	resume    func() (struct{}, bool)
	stop      func()
	yield     func(struct{}) bool
	abandoned bool

	// step, when non-nil, is the parked proc's inline scheduler: the token
	// holder calls it in place of a coroutine switch (see StepWhile).
	step func() (int64, bool)
	// dozing is set by Doze during a step turn and cleared by WakeAt; in
	// between the proc is Blocked, out of the ready tree, step kept.
	dozing bool

	// span marks a parked step machine as interaction-free (parked via
	// SpanWhile), making it eligible to run inside a window.
	// spanSave/spanRestore checkpoint the machine's private state so a
	// window that closes early can roll the span back and replay it. The
	// flag is only ever set when the engine runs with SetParallel >= 2;
	// at par 1 every SpanWhile parks as a plain step.
	span        bool
	spanSave    func()
	spanRestore func()
}

// clearSpan strips the span marking when a parked machine resumes.
func (p *Proc) clearSpan() {
	p.span = false
	p.spanSave = nil
	p.spanRestore = nil
}

// Engine coordinates a fixed set of procs.
type Engine struct {
	procs []*Proc
	// started is set once Run has handed out the first token.
	started atomic.Bool

	// next is the proc the driver loop in Run resumes next: a holder sets
	// it and yields; nil once the last proc has finished.
	next *Proc
	// running is the proc whose code executes: the token holder, or the
	// proc whose step the holder is running inline (see Running).
	running *Proc
	// deadlockNote, if set, explains a deadlock in its caller's terms.
	deadlockNote func() string

	// idBits is the width of the ID field of a packed key, derived from
	// the proc count; clockLimit = 1<<(63-idBits) is the first clock that
	// no longer fits beside it. Both are fixed by NewEngine.
	idBits     uint
	clockLimit uint64

	// tree is the winner tournament tree of the keys of the Ready procs,
	// excluding the current token holder: 2·2^idBits slots, slot 0 unused,
	// proc id's leaf at 2^idBits+id, and each internal node i the smaller of
	// nodes 2i and 2i+1. A key names its proc in its low idBits (procOf); an
	// absent proc's leaf and the padding leaves past the last proc hold
	// noHorizon. The root, tree[1], is the horizon: the next-smallest ready
	// key after the holder. While the holder's key stays below it, Advance
	// never reschedules; an empty tree's root is noHorizon, which no key
	// reaches, so a lone proc stays on the fast path. Only the token holder
	// touches it.
	tree []uint64

	// windows is set by SetParallel(n >= 2): SpanWhile then marks its
	// proc span-parked and dispatch opens windows. Unset, the engine is
	// the serial one.
	windows bool

	// windowStale suppresses window attempts after one found fewer than
	// two span-parked procs at the front, until the ready set's membership
	// changes (a push, or the holder swapping in for a departing minimum).
	// The rule is conservative, not exact: a plain step machine stepping
	// past span-parked entries also makes a window viable, and that one is
	// skipped. A skipped window changes no virtual result, but which
	// windows open is what SpanStats counts and the benchmark's digest
	// pins, so the rule stays as it is.
	windowStale bool

	// Window scheduler state: per-window scratch and the window counters.
	spanRuns   []spanRun
	spanActive []*spanRun
	spanStats  SpanStats

	stats EngineStats
}

// EngineStats counts the scheduler's slow-path work: what the engine did
// beyond the Advance fast path, which is not counted. Every field is
// deterministic for a given simulation and schedule (SetParallel 1, or any
// n >= 2).
type EngineStats struct {
	// Grants is the number of token handoffs (coroutine resumes by the
	// driver), the initial one included.
	Grants int64
	// InlineTurns counts step-function calls made on the token holder's
	// stack (turns run inside windows are SpanStats.SpanTurns).
	InlineTurns int64
	// Pushes counts procs entering the ready tree; Rekeys counts the
	// minimum's re-keys (an inline turn's grown key, or the holder swapping
	// places with a departing goroutine-bound minimum).
	Pushes int64
	Rekeys int64
	// Dozes counts procs leaving the ready tree through Doze, Wakes those
	// WakeAt put back, and Moves the tree entries WakeAt moved earlier.
	Dozes int64
	Wakes int64
	Moves int64
	// ReplayedTurns counts span turns run a second time: a window that
	// closed early at one span's exit rolls its other participants back
	// and replays them below that exit. They are part of
	// SpanStats.SpanTurns; always zero at par 1.
	ReplayedTurns int64
}

// Stats returns the accumulated scheduler counters. Like MaxClock it must
// not be called while Run is executing procs.
func (e *Engine) Stats() EngineStats { return e.stats }

// NewEngine creates an engine with n procs, all Ready at clock zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("vtime: engine needs at least one proc")
	}
	idBits := uint(bits.Len(uint(n - 1)))
	e := &Engine{
		idBits:     idBits,
		clockLimit: 1 << (63 - idBits),
		tree:       make([]uint64, 2<<idBits),
	}
	for i := range e.tree {
		e.tree[i] = noHorizon
	}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{
			ID:    i,
			eng:   e,
			state: Ready,
		})
	}
	return e
}

// Proc returns the i'th proc.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// SetParallel selects the schedule. n == 1 (the default) is the serial
// engine; any n >= 2 turns on span windows, the same schedule for every such
// n. Virtual results are bit-identical either way. It must be called before
// Run.
func (e *Engine) SetParallel(n int) {
	if e.started.Load() {
		panic("vtime: SetParallel after Run")
	}
	if n < 1 {
		panic("vtime: SetParallel needs n >= 1")
	}
	e.windows = n > 1
}

// Run executes body on every proc and returns when all procs are Done. It
// may be called once per engine. The bodies run as coroutines driven from
// the calling goroutine, so a panic that escapes one — the deadlock panic
// included — is raised here, on Run's caller, after the procs still parked
// have been unwound.
func (e *Engine) Run(body func(p *Proc)) {
	if e.started.Swap(true) {
		panic("vtime: Run called twice")
	}
	defer func() {
		// After a normal run every proc is Done and stop does nothing; a
		// panicking one leaves procs parked in yieldTo, and each stop
		// unwinds one so its goroutine ends.
		for _, p := range e.procs {
			p.stop()
		}
	}()
	for _, p := range e.procs {
		p.start(body)
	}
	// Seed the ready tree with procs 1..n-1 and hand the token to the
	// initial minimum, proc 0 (all clocks are zero, so ID order is key
	// order).
	for _, p := range e.procs[1:] {
		e.push(p)
	}
	e.next = e.procs[0]
	for e.next != nil {
		p := e.next
		e.next = nil
		e.running = p
		e.stats.Grants++
		p.resume()
	}
}

// SetDeadlockNote adds note's result, unless empty, to the deadlock panic,
// so the engine's user can say in its own terms why nothing is left to wake
// a blocked or dozing proc.
func (e *Engine) SetDeadlockNote(note func() string) { e.deadlockNote = note }

// Running returns the proc whose code is executing: the token holder, or,
// while the holder runs another proc's step inline, that proc. Its (clock,
// ID) is the key of the current turn, which every turn a wake schedules must
// follow.
func (e *Engine) Running() *Proc { return e.running }

// procAbandoned unwinds the stack of a proc that Run stopped while it was
// parked. It is raised and recovered inside this package.
type procAbandoned struct{}

// start creates p's coroutine; body begins at the driver's first resume.
func (p *Proc) start(body func(p *Proc)) {
	p.resume, p.stop = newCoroutine(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// An abandoned proc ends quietly, whatever its unwinding
			// raised; any other panic goes on to the driver's resume.
			if p.abandoned {
				recover()
			}
		}()
		body(p)
		if !p.abandoned { // a body may have recovered procAbandoned itself
			p.finish()
		}
	})
}

// yieldTo hands the token to next — the scheduling decision's next proc —
// and parks p until the driver resumes it with the token.
func (p *Proc) yieldTo(next *Proc) {
	p.eng.next = next
	if !p.yield(struct{}{}) {
		// Run is unwinding from a panic and stopped this coroutine.
		p.abandoned = true
		panic(procAbandoned{})
	}
}

// --- Ready-tree primitives (caller is the token holder) -------------------

// noHorizon is the horizon of an empty ready tree, and what the leaf of a
// proc that is not in it holds. Keys stay below 1<<63, so nothing reaches it.
const noHorizon = math.MaxUint64

// key packs p's (clock, ID) into its scheduling key: integer order on keys
// is lexicographic order on the pair, keys are unique, and all stay below
// 1<<63. This is where a clock that has outgrown its field is caught; every
// key that enters the tree or bounds a span is built here.
func (e *Engine) key(p *Proc) uint64 {
	if uint64(p.clock) >= e.clockLimit {
		e.clockOverflow(p)
	}
	return uint64(p.clock)<<(e.idBits&63) | uint64(p.ID)
}

// procOf returns the proc a key belongs to: its ID is the key's low bits.
func (e *Engine) procOf(k uint64) *Proc {
	return e.procs[k&(1<<(e.idBits&63)-1)]
}

// pack is key without the overflow check, for the running proc's horizon
// test in Advance and parkWhile. The test stays exact: while the tree is
// non-empty the running proc's clock fits its field (its key came out of
// the tree, or the procs it just released carry a clock at least as large
// and were checked), and its charge is below clockLimit, so the shift loses
// no bit and a clock that has outgrown the field packs to at least 1<<63 —
// above every real horizon, so the slow path builds the checked key and
// panics. Under an empty tree every clock passes, which is right for a
// lone proc.
func (e *Engine) pack(clock int64, id int) uint64 {
	return uint64(clock)<<(e.idBits&63) | uint64(id)
}

// clockOverflow is kept out of line so key inlines.
//
//go:noinline
func (e *Engine) clockOverflow(p *Proc) {
	panic(fmt.Sprintf("vtime: proc %d clock %d does not fit the %d clock bits of a packed ready key (%d procs)",
		p.ID, p.clock, 63-e.idBits, len(e.procs)))
}

// horizon is the smallest ready key: the tree's root.
func (e *Engine) horizon() uint64 { return e.tree[1] }

// set is the tree's one primitive: it writes k (noHorizon: absent) to proc
// id's leaf and replays the path to the root, each node the smaller of the
// path's value so far and its sibling.
func (e *Engine) set(id int, k uint64) {
	t := e.tree
	i := len(t)>>1 + id
	t[i] = k
	for ; i > 1; i >>= 1 {
		k = min(k, t[i^1])
		t[i>>1] = k
	}
}

// push puts p into the ready tree.
func (e *Engine) push(p *Proc) {
	e.stats.Pushes++
	e.windowStale = false
	e.set(p.ID, e.key(p))
}

// rekey re-keys p, the tree's minimum, at its grown clock after an inline
// turn.
func (e *Engine) rekey(p *Proc) {
	e.stats.Rekeys++
	e.set(p.ID, e.key(p))
}

// swap puts in, the holder, into the tree in place of out, the departing
// minimum. The key is built first, so an overflowing clock panics before
// the tree is touched.
func (e *Engine) swap(out, in *Proc) {
	k := e.key(in)
	e.stats.Rekeys++
	e.set(out.ID, noHorizon)
	e.set(in.ID, k)
}

// pop takes p out of the ready tree.
func (e *Engine) pop(p *Proc) { e.set(p.ID, noHorizon) }

// second returns the second-smallest ready key, given p, the minimum: the
// smallest sibling on p's leaf-to-root path (noHorizon when p is alone). It
// writes nothing.
func (e *Engine) second(p *Proc) uint64 {
	t := e.tree
	s := uint64(noHorizon)
	for i := len(t)>>1 + p.ID; i > 1; i >>= 1 {
		s = min(s, t[i^1])
	}
	return s
}

// sleep leaves a dozing proc Blocked, with its step kept for WakeAt.
func (e *Engine) sleep(p *Proc) {
	p.state = Blocked
	e.stats.Dozes++
}

// move re-keys p, which waits in the tree, to the earlier clock.
func (e *Engine) move(p *Proc, clock int64) {
	if e.tree[len(e.tree)>>1+p.ID] != e.key(p) {
		panic(fmt.Sprintf("vtime: WakeAt of proc %d, which is neither blocked nor waiting in the ready tree", p.ID))
	}
	p.clock = clock
	e.set(p.ID, e.key(p))
	e.stats.Moves++
}

// dispatch drives the simulation forward until a token handoff is due:
// while the minimum ready proc is parked in a step function, its turns are
// executed inline on the caller's stack; the first minimum that needs its
// own stack (no step function, or its step function just reported done)
// is popped and returned. Returns nil when no proc is ready — a deadlock
// (panic) if anything is still blocked, or normal completion if not. An
// inline turn that dozes can empty the tree, so that is checked every
// turn.
//
// The caller must have already accounted for itself (pushed itself into the
// ready tree, or marked itself Blocked/Done).
func (e *Engine) dispatch() *Proc {
	holder := e.running
	for {
		k := e.horizon()
		if k == noHorizon {
			e.checkDeadlock()
			// All procs are Done; nothing to schedule.
			return nil
		}
		next := e.procOf(k)
		if next.step == nil {
			e.pop(next)
			return next
		}
		if next.span && !e.windowStale {
			// A span-parked second-smallest key is exactly "at least two
			// spans below the conservative edge". A solo span runs
			// inline.
			if s := e.second(next); s != noHorizon && e.procOf(s).span {
				if p := e.spanWindow(); p != nil {
					return p
				}
				continue
			}
			e.windowStale = true
		}
		// Inline turn: next is the minimum, so this is exactly the
		// virtual instant its coroutine would have been resumed.
		e.stats.InlineTurns++
		e.running = next
		d, done := next.step()
		e.running = holder
		if done {
			e.pop(next)
			next.step = nil
			next.clearSpan()
			return next
		}
		if d < 0 {
			panic("vtime: negative advance")
		}
		next.clock += d
		if next.dozing {
			e.pop(next)
			e.sleep(next)
			continue
		}
		e.rekey(next)
	}
}

// checkDeadlock panics if a proc is Blocked: the caller found the ready
// tree empty, so nothing is left to release it.
func (e *Engine) checkDeadlock() {
	var blocked, dozing []string
	for _, q := range e.procs {
		switch {
		case q.state != Blocked:
		case q.dozing:
			dozing = append(dozing, strconv.Itoa(q.ID))
		default:
			blocked = append(blocked, strconv.Itoa(q.ID))
		}
	}
	if blocked == nil && dozing == nil {
		return
	}
	msg := "vtime: deadlock — no ready proc"
	if blocked != nil {
		msg += "; proc " + strings.Join(blocked, ", ") + " blocked"
	}
	if dozing != nil {
		msg += "; proc " + strings.Join(dozing, ", ") + " dozing"
	}
	if e.deadlockNote != nil {
		if note := e.deadlockNote(); note != "" {
			msg += " (" + note + ")"
		}
	}
	panic(msg)
}

// badCharge rejects a charge the running proc's horizon test cannot take:
// negative, or too large for the unchecked key of pack to stay exact. Kept
// out of line to keep the fast paths small.
//
//go:noinline
func (e *Engine) badCharge(p *Proc, d int64) {
	if d < 0 {
		panic("vtime: negative advance")
	}
	panic(fmt.Sprintf("vtime: proc %d charge %d does not fit the %d clock bits of a packed ready key (%d procs)",
		p.ID, d, 63-e.idBits, len(e.procs)))
}

// Now returns the proc's virtual clock in nanoseconds.
func (p *Proc) Now() int64 { return p.clock }

// Advance charges d nanoseconds of virtual time and reschedules: if another
// ready proc now has a smaller clock, control transfers to it before Advance
// returns. d must be non-negative.
//
// Fast path: while the advanced clock stays below the horizon (the smallest
// other ready key), the holder is still the global minimum and Advance is a
// plain local add — no synchronization of any kind.
func (p *Proc) Advance(d int64) {
	e := p.eng
	if uint64(d) >= e.clockLimit {
		e.badCharge(p, d)
	}
	c := p.clock + d
	if e.pack(c, p.ID) < e.horizon() {
		p.clock = c
		return
	}
	// Slow path: the key crossed the horizon, so the ready minimum now
	// precedes us.
	p.clock = c
	next := e.procOf(e.horizon())
	if next.step == nil {
		// Common case: the new minimum runs on its own stack. Swap
		// places with it directly — it takes the token, we take its
		// place in the tree.
		e.swap(next, p)
		e.windowStale = false
		p.yieldTo(next)
		return
	}
	// The minimum is parked in a step function: rejoin the ready set and
	// dispatch; if every intervening proc runs inline, the token never
	// leaves this stack.
	e.push(p)
	if next = e.dispatch(); next != p {
		p.yieldTo(next)
	}
}

// StepWhile suspends the proc into an inline scheduling loop: fn is invoked
// at every virtual instant the proc is scheduled — possibly on another
// proc's stack — and returns the duration to charge before its next
// turn, or done to resume normal execution. StepWhile returns on the proc's
// own stack, holding the token, at the exact virtual instant of the
// final fn call; no virtual time passes between that call and the return.
//
// StepWhile(fn) is semantically identical to
//
//	for {
//		d, done := fn()
//		if done {
//			return
//		}
//		p.Advance(d)
//	}
//
// but turns that interleave with other parked pollers cost a function call
// instead of a token handoff. fn must confine itself to observing and
// mutating simulation state and must not call engine scheduling primitives
// (Advance, Barrier.Arrive) — it runs astride them.
func (p *Proc) StepWhile(fn func() (d int64, done bool)) {
	p.parkWhile(fn, nil, nil, false)
}

// SpanWhile is StepWhile for an interaction-free step machine: parked turns
// may additionally run inside a window, out of key order with other spans'
// turns (see the package comment). It is semantically identical to
// StepWhile — at SetParallel 1 it IS StepWhile — and imposes the span-safety
// contract on fn:
//
//   - fn may READ any simulation state. During a window only spans execute
//     and spans write nothing shared, so everything it reads is frozen at
//     its window-entry value — exactly what the serial interleaving of
//     interaction-free machines would observe.
//   - fn may WRITE only state private to this machine, and all of it must
//     be checkpointed by save and rewound by restore (pass nil for either
//     when fn writes nothing). A window that closes early rolls the span
//     back via restore and replays it.
//   - fn must not call engine primitives or charge through contended
//     (metered) cost-model paths; machines that do — kernel steps, GC scan
//     machines — park with StepWhile and instead bound the window edge.
func (p *Proc) SpanWhile(fn func() (d int64, done bool), save, restore func()) {
	p.parkWhile(fn, save, restore, true)
}

// parkWhile is the shared StepWhile/SpanWhile body.
func (p *Proc) parkWhile(fn func() (int64, bool), save, restore func(), span bool) {
	e := p.eng
	for {
		d, done := fn()
		if done {
			return
		}
		if uint64(d) >= e.clockLimit {
			e.badCharge(p, d)
		}
		c := p.clock + d
		if e.pack(c, p.ID) < e.horizon() && !p.dozing {
			p.clock = c
			continue
		}
		p.clock = c
		p.step = fn
		if span && e.windows {
			p.span = true
			p.spanSave = save
			p.spanRestore = restore
		}
		if p.dozing {
			e.sleep(p)
		} else {
			e.push(p)
		}
		// Either dispatch ran fn inline (or inside a window) until it
		// reported done and cleared p.step, and the token never left this
		// stack; or the token goes elsewhere and only comes back after
		// some holder observed fn report done and cleared p.step. A dozer
		// takes the second way, and its turns resume only after a WakeAt.
		if next := e.dispatch(); next != p {
			p.yieldTo(next)
		}
		return
	}
}

// Doze, called from p's own step function on a turn that returns (d,
// false), takes p out of the ready tree once that turn's charge d is
// applied: p is Blocked, its step kept, and takes no turn until WakeAt
// returns it. A step dozes when every turn it would take until some other
// proc mutates what it observes provably changes nothing but its own state;
// whoever performs such a mutation must call WakeAt first. A span step must
// not doze: a window would run past it.
func (p *Proc) Doze() { p.dozing = true }

// WakeAt returns a proc that dozed (or blocked) to the ready tree with its
// clock set to clock, the instant of its next turn; a dozer's next turn runs
// its kept step. A proc that instead waits in the tree at a later clock —
// a step whose turn charged it past turns that observe nothing — is moved
// earlier, to clock. It must be called by the running proc or a step on its
// stack; clock must not precede a blocked proc's clock, nor follow a waiting
// one's. To leave the skipped turns unobservable, clock must be the first of
// the proc's turns that can observe what the running proc changed, which
// follows Running's in (clock, ID) order: the turns before it are the ones
// the dozer would have taken, to no effect, before the change.
func (e *Engine) WakeAt(p *Proc, clock int64) {
	if p.state == Ready && p != e.running && clock <= p.clock {
		if clock < p.clock {
			e.move(p, clock)
		}
		return
	}
	if p.state != Blocked || clock < p.clock {
		panic(fmt.Sprintf("vtime: WakeAt of proc %d (state %d) at clock %d, behind its own %d or not blocked",
			p.ID, p.state, clock, p.clock))
	}
	p.clock = clock
	p.state = Ready
	p.dozing = false
	e.stats.Wakes++
	// push lowers the horizon to p's key if it is the new minimum, so the
	// running proc's fast path cannot run past it.
	e.push(p)
}

// finish marks the proc Done and names the next holder for the driver, if
// any proc is left; the body's coroutine ends when it returns.
func (p *Proc) finish() {
	p.state = Done
	p.eng.next = p.eng.dispatch()
}

// MaxClock returns the largest clock over all procs; after Run completes
// this is the makespan of the simulation. It must not be called while Run
// is executing procs (clocks are unsynchronized engine-internal state).
func (e *Engine) MaxClock() int64 {
	var mx int64
	for _, p := range e.procs {
		if p.clock > mx {
			mx = p.clock
		}
	}
	return mx
}
