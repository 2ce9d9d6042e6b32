package core

import "fmt"

// Deterministic fault injection. A FaultPlan schedules vproc stalls
// ("slow node" pauses), heap-pressure spikes (forced allocation bursts),
// and channel closes at chosen virtual instants, composable with any
// workload: the plan rides the per-vproc timer queues, so events fire with
// the same exactness guarantees as timer continuations and two runs with
// the same plan produce bit-identical schedules.
//
// Execution discipline: a due FaultEvent is *deferred*, never run from
// fireDueTimers — the pop site can be inside an engine step function
// (sweep, SleepUntil) where advancing and allocating are illegal. The
// event queues on vp.pendingFaults and checkPreempt drains it on the
// vproc's own goroutine, which is a legal context for both. The deferral
// does not cost exactness beyond a task's normal wakeup jitter: the idle
// machines exit with sweepFault at the deadline instant, and a busy vproc
// notices at its next loop-top — the same latency a timer continuation has.

// FaultKind classifies a fault-plan event.
type FaultKind int

const (
	// FaultStall pauses the vproc for StallNs of virtual time (a slow or
	// briefly unresponsive node). The stall is GC-safe: the vproc keeps
	// servicing stop-the-world signals while stalled (SleepFor).
	FaultStall FaultKind = iota
	// FaultBurst allocates Words of short-lived data and promotes it,
	// forcing local-collection and global-heap pressure (a heap spike).
	FaultBurst
	// FaultClose closes Ch at the deadline: parked receivers wake with nil
	// messages and in-flight sends observe SendClosed — the
	// recoverable-failure path under load.
	FaultClose
	// FaultSqueeze rewrites the global-heap chunk budget to Budget at the
	// deadline (0 restores an unbounded heap), injecting heap exhaustion
	// — or relief — at a chosen virtual instant. Mutator allocation
	// gates observe the new budget from the next TryAlloc* on; data
	// already in the heap stays (a squeeze below current occupancy puts
	// the heap in overdraft until collections catch up).
	FaultSqueeze
	// FaultCrash kills the target vproc at the deadline — permanently. The
	// crashed vproc leaves every global-GC barrier and steal sweep, its
	// local heap is retired (frozen, still readable through proxies), its
	// queued and in-flight tasks are reported lost with exact Join
	// accounting, its parked continuations and pending timers are cancelled,
	// and its owned channels fail over to SendCrashed / nil-message wakeups.
	// See crash.go for the full semantics contract.
	FaultCrash
)

// String names the kind for diagnostics.
func (k FaultKind) String() string {
	switch k {
	case FaultStall:
		return "stall"
	case FaultBurst:
		return "burst"
	case FaultClose:
		return "close"
	case FaultSqueeze:
		return "squeeze"
	case FaultCrash:
		return "crash"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	// At is the virtual deadline (ns) at which the fault fires.
	At int64
	// VProc is the vproc the fault executes on (the stalled/bursting
	// vproc; for FaultClose, the vproc whose timer queue carries the
	// event — the close itself is host-side).
	VProc int
	// Kind selects the fault body.
	Kind FaultKind
	// StallNs is the stall duration (FaultStall).
	StallNs int64
	// Words is the burst allocation size in payload words (FaultBurst).
	Words int
	// Ch is the channel to close (FaultClose).
	Ch *Channel
	// Budget is the global chunk budget to install (FaultSqueeze);
	// 0 restores an unbounded heap.
	Budget int
	// Node and Board widen a FaultCrash to every vproc on a NUMA node or
	// board (correlated failure). Exactly one of VProc/Node/Board must be
	// >= 0 for a crash event; the builders set the unused pair to -1.
	// Ignored by every other kind.
	Node  int
	Board int
}

// FaultPlan is an ordered set of fault events. Build one with the chained
// helpers or RandomFaultPlan, then arm it with Runtime.InstallFaults.
type FaultPlan struct {
	Events []FaultEvent
}

// Stall schedules a FaultStall and returns the plan for chaining.
func (p *FaultPlan) Stall(vproc int, at, stallNs int64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: vproc, Kind: FaultStall, StallNs: stallNs})
	return p
}

// Burst schedules a FaultBurst and returns the plan for chaining.
func (p *FaultPlan) Burst(vproc int, at int64, words int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: vproc, Kind: FaultBurst, Words: words})
	return p
}

// SqueezeAt schedules a FaultSqueeze and returns the plan for chaining:
// at the deadline the global chunk budget becomes budgetChunks (0 =
// unbounded again). Chain a second SqueezeAt to model a transient
// squeeze-then-recover episode.
func (p *FaultPlan) SqueezeAt(vproc int, at int64, budgetChunks int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: vproc, Kind: FaultSqueeze, Budget: budgetChunks})
	return p
}

// CrashAt schedules a FaultCrash of one vproc and returns the plan for
// chaining.
func (p *FaultPlan) CrashAt(vproc int, at int64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: vproc, Kind: FaultCrash, Node: -1, Board: -1})
	return p
}

// CrashNodeAt schedules a correlated FaultCrash of every vproc on a NUMA
// node and returns the plan for chaining. The node is resolved against the
// machine at InstallFaults time; a node with no vproc assigned is an error
// (reject, not silently inert).
func (p *FaultPlan) CrashNodeAt(node int, at int64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: -1, Kind: FaultCrash, Node: node, Board: -1})
	return p
}

// CrashBoardAt schedules a correlated FaultCrash of every vproc on a board
// (the rack machines' failure domain) and returns the plan for chaining.
func (p *FaultPlan) CrashBoardAt(board int, at int64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, VProc: -1, Kind: FaultCrash, Node: -1, Board: board})
	return p
}

// RandomCrashPlan extends RandomFaultPlan's stream discipline to crash
// storms: crashes single-vproc kills drawn without replacement from
// [keepLow, nv) over [horizon/8, horizon). Vprocs below keepLow are never
// crashed — harnesses keep their coordinator (vproc 0) alive so termination
// watchdogs survive. Requires crashes <= nv - keepLow.
func RandomCrashPlan(seed uint64, nv, keepLow, crashes int, horizon int64) *FaultPlan {
	if nv < 1 || keepLow < 0 || keepLow >= nv {
		panic(fmt.Sprintf("core: RandomCrashPlan with %d vprocs, keepLow %d", nv, keepLow))
	}
	if crashes < 0 || crashes > nv-keepLow {
		panic(fmt.Sprintf("core: RandomCrashPlan wants %d crashes of %d crashable vprocs", crashes, nv-keepLow))
	}
	if horizon < 16 {
		panic(fmt.Sprintf("core: RandomCrashPlan horizon %d too short", horizon))
	}
	rng := NewRand(seed)
	// Partial Fisher-Yates over the crashable vproc IDs: distinct targets by
	// construction, matching InstallFaults's no-duplicate-crash rule.
	ids := make([]int, nv-keepLow)
	for i := range ids {
		ids[i] = keepLow + i
	}
	p := &FaultPlan{}
	lo := horizon / 8
	for i := 0; i < crashes; i++ {
		j := i + int(rng.Next()%uint64(len(ids)-i))
		ids[i], ids[j] = ids[j], ids[i]
		p.CrashAt(ids[i], lo+int64(rng.Next()%uint64(horizon-lo)))
	}
	return p
}

// RandomFaultPlan builds a seeded plan of stalls and bursts spread over
// [horizon/8, horizon) across nv vprocs, drawn from NewRand(seed), so the
// plan is a pure function of its arguments. Channel closes are not generated
// here — they need channel references, which only the embedding workload
// has; append a FaultClose event for one.
func RandomFaultPlan(seed uint64, nv int, horizon int64, stalls, bursts int) *FaultPlan {
	if nv < 1 {
		panic(fmt.Sprintf("core: RandomFaultPlan with %d vprocs", nv))
	}
	if horizon < 16 {
		panic(fmt.Sprintf("core: RandomFaultPlan horizon %d too short", horizon))
	}
	rng := NewRand(seed)
	at := func() int64 {
		lo := horizon / 8
		return lo + int64(rng.Next()%uint64(horizon-lo))
	}
	p := &FaultPlan{}
	for i := 0; i < stalls; i++ {
		p.Stall(int(rng.Next()%uint64(nv)), at(), 20_000+int64(rng.Next()%180_000))
	}
	for i := 0; i < bursts; i++ {
		p.Burst(int(rng.Next()%uint64(nv)), at(), int(2048+rng.Next()%6144))
	}
	return p
}

// InstallFaults arms every event of the plan on its vproc's timer queue.
// Call before Run (or from workload setup code at virtual time zero);
// events whose deadline lies beyond the run's natural makespan are inert —
// fault timers do not count as outstanding work, so the runtime quiesces
// normally and unfired events are simply never popped.
func (rt *Runtime) InstallFaults(p *FaultPlan) {
	// crashTargets: every vproc crashed by any event of the plan — a vproc
	// may crash at most once (reject, not last-wins).
	crashTargets := make(map[int]bool)
	for i := range p.Events {
		e := &p.Events[i]
		if e.At < 0 {
			panic(fmt.Sprintf("core: fault event %d at negative instant %d", i, e.At))
		}
		if e.Kind == FaultCrash {
			rt.installCrash(i, e, crashTargets)
			continue
		}
		if e.VProc < 0 || e.VProc >= len(rt.VProcs) {
			panic(fmt.Sprintf("core: fault event %d targets vproc %d of %d", i, e.VProc, len(rt.VProcs)))
		}
		if e.Kind == FaultClose && e.Ch == nil {
			panic(fmt.Sprintf("core: fault event %d closes a nil channel", i))
		}
		if e.Kind == FaultSqueeze && e.Budget < 0 {
			panic(fmt.Sprintf("core: fault event %d squeezes to negative budget %d", i, e.Budget))
		}
		rt.VProcs[e.VProc].timers.Add(e.At, e)
	}
}

// installCrash validates one FaultCrash event eagerly (reject, not clamp)
// and arms one per-vproc crash event for every vproc in its failure domain.
// Node/board targets are resolved against the machine here — the only place
// the plan meets a topology.
func (rt *Runtime) installCrash(i int, e *FaultEvent, crashTargets map[int]bool) {
	topo := rt.Cfg.Topo
	var targets []int
	switch {
	case e.VProc >= 0:
		if e.Node >= 0 || e.Board >= 0 {
			panic(fmt.Sprintf("core: crash event %d names both a vproc and a node/board", i))
		}
		if e.VProc >= len(rt.VProcs) {
			panic(fmt.Sprintf("core: crash event %d targets vproc %d of %d", i, e.VProc, len(rt.VProcs)))
		}
		targets = []int{e.VProc}
	case e.Node >= 0:
		if e.Board >= 0 {
			panic(fmt.Sprintf("core: crash event %d names both a node and a board", i))
		}
		if e.Node >= topo.NumNodes() {
			panic(fmt.Sprintf("core: crash event %d targets node %d of %d", i, e.Node, topo.NumNodes()))
		}
		for _, vp := range rt.VProcs {
			if vp.Node == e.Node {
				targets = append(targets, vp.ID)
			}
		}
		if len(targets) == 0 {
			panic(fmt.Sprintf("core: crash event %d targets node %d, which hosts no vproc", i, e.Node))
		}
	case e.Board >= 0:
		if e.Board >= topo.Boards() {
			panic(fmt.Sprintf("core: crash event %d targets board %d of %d", i, e.Board, topo.Boards()))
		}
		for _, vp := range rt.VProcs {
			if topo.BoardOfNode(vp.Node) == e.Board {
				targets = append(targets, vp.ID)
			}
		}
		if len(targets) == 0 {
			panic(fmt.Sprintf("core: crash event %d targets board %d, which hosts no vproc", i, e.Board))
		}
	default:
		panic(fmt.Sprintf("core: crash event %d names no target (vproc, node, and board all < 0)", i))
	}
	for _, id := range targets {
		if crashTargets[id] {
			panic(fmt.Sprintf("core: crash event %d crashes vproc %d twice", i, id))
		}
		crashTargets[id] = true
		// A fresh per-vproc event: the plan's event is a template for the
		// whole failure domain and may be reused across runs.
		rt.VProcs[id].timers.Add(e.At, &FaultEvent{At: e.At, VProc: id, Kind: FaultCrash, Node: -1, Board: -1})
	}
}

// runPendingFaults drains the deferred fault events in FIFO order on the
// vproc's own goroutine. The inFault guard stops re-entry: a stall's
// SleepFor services checkPreempt, which would otherwise start draining the
// remaining events recursively (and a burst's allocations reach safepoints
// whose timer pops can append more).
func (vp *VProc) runPendingFaults() {
	if vp.inFault {
		return
	}
	vp.inFault = true
	for len(vp.pendingFaults) != 0 {
		e := vp.pendingFaults[0]
		vp.pendingFaults = vp.pendingFaults[1:]
		vp.Stats.FaultsInjected++
		switch e.Kind {
		case FaultStall:
			vp.Stats.FaultStallNs += e.StallNs
			vp.SleepFor(e.StallNs)
		case FaultBurst:
			vp.faultBurst(e.Words)
		case FaultClose:
			e.Ch.Close()
		case FaultSqueeze:
			vp.rt.Chunks.BudgetChunks = e.Budget
			// The budget changed under the fail-fast state; re-arm the
			// ladder so the next gate re-evaluates from scratch.
			vp.rt.ladderFailed = false
		case FaultCrash:
			// crash never returns: it unwinds this vproc's whole stack with
			// the vprocCrashed sentinel (recovered in Runtime.Run). Any
			// events still queued behind it die with the vproc.
			vp.crash()
		default:
			panic(fmt.Sprintf("core: unknown fault kind %d", e.Kind))
		}
	}
	vp.inFault = false
}

// faultBurst allocates words of short-lived data in 64-word objects and
// promotes each, pressuring the nursery (minor collections), the global
// chunk pool, and — through the allocated-words trigger — the global
// collector, exactly like a mutator's worst-case allocation spike.
func (vp *VProc) faultBurst(words int) {
	const objWords = 64
	for words > 0 {
		n := objWords
		if words < n {
			n = words
		}
		words -= n
		s := vp.PushRoot(vp.AllocRawN(n))
		vp.Promote(vp.Root(s))
		vp.PopRoots(1)
		vp.Stats.FaultBurstWords += int64(n)
	}
}
