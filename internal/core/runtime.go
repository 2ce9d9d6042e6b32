package core

import (
	"fmt"
	"reflect"

	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// Runtime is the assembled Manticore runtime system: machine model, page
// table, heap space, descriptor table, chunk manager, vprocs, scheduler
// state, and the global-collection protocol state.
type Runtime struct {
	Cfg     Config
	Machine *numa.Machine
	Pages   *mempage.Table
	Space   *heap.Space
	Descs   *heap.Table
	Chunks  *heap.ChunkManager
	Eng     *vtime.Engine
	VProcs  []*VProc

	// Scheduler state (serialized by the virtual-time engine).
	outstanding int64 // spawned but not yet completed tasks
	// noDoze turns dozing off on the serial engine, as span windows do: the
	// dozing differentials' oracle. Only tests set it.
	noDoze bool
	// chanDesc is the lazily registered channel-record descriptor ID
	// (0 = not yet registered); see channel.go.
	chanDesc uint16
	// ladderFailed is set while the emergency ladder fails fast (see
	// ladderFailGlobalGCs below).
	ladderFailed bool
	// dozers are the vprocs whose idle sweeps doze (see doze.go), in no
	// particular order; cycle is the shape of their sweeps, and dozeEpoch
	// numbers the dozes.
	dozers    []dozer
	cycle     sweepCycle
	dozeEpoch uint64

	global globalState
	tracer Tracer

	// localGCActive counts vprocs currently inside a local collection or
	// promotion. The Debug verifier only runs when it is zero: a
	// suspended collector legitimately has partially-scanned copies in
	// its chunk, which are unreachable by other vprocs but visible to a
	// whole-heap walk.
	localGCActive int

	// stepTurns counts the inline turns in which an idle sweep ran a step
	// task's turn (see StepTaskTurns), and declines the cost forms that
	// declined.
	stepTurns int64
	declines  StepDeclines
	// freeSteps are the step tasks that ended, for parkSteps to reuse (see
	// stepTask).
	freeSteps []*stepTask

	// globalRoots are addresses pinned by the embedding program (shared
	// structures held in Go variables across collections); the global
	// collector updates them in place.
	globalRoots []*heap.Addr

	// Emergency-ladder fail-fast state (see ensureGlobalHeadroom): after
	// a full escalation fails to free headroom, further TryAlloc* calls
	// fail immediately until a global collection has run or the heap has
	// grown by at least two chunks — both deterministic signals that the
	// ladder might succeed now. Without this, every failed allocation
	// would re-run a stop-the-world ladder and the run would thrash.
	// ladderFailed is declared with the flags above, whose word it shares.
	ladderFailGlobalGCs int
	ladderFailAllocated int
	ladderFailNs        int64

	Stats RTStats
}

// RegisterGlobalRoot pins a global-heap address held outside the simulated
// heap (e.g. by a benchmark harness) so global collections keep it current.
// The referent must be in the global heap.
func (rt *Runtime) RegisterGlobalRoot(a *heap.Addr) {
	rt.globalRoots = append(rt.globalRoots, a)
}

// unregisterGlobalRoot removes a pinned root (e.g. a closed channel's
// record), preserving the order of the rest — global collections iterate
// the list, and forwarding order must stay deterministic.
func (rt *Runtime) unregisterGlobalRoot(a *heap.Addr) {
	for i, q := range rt.globalRoots {
		if q == a {
			rt.globalRoots = append(rt.globalRoots[:i], rt.globalRoots[i+1:]...)
			return
		}
	}
}

// RTStats aggregates runtime-wide statistics.
type RTStats struct {
	GlobalGCs        int
	GlobalCopied     int64 // words copied by global collections
	GlobalNs         int64 // virtual wall time spent in global collections
	ChunksFromSpace  int
	CrossNodeScanned int // scan-list chunks taken by a vproc off their home node
	// LastGlobalSurvivedWords is the active global chunkage immediately
	// after the most recent global collection — the post-GC survival
	// component of the occupancy signal. Zero until the first global GC.
	LastGlobalSurvivedWords int
	// SnapshotNs / TermNs accumulate the concurrent collector's two STW
	// window durations (leader-timed); zero under the legacy collector.
	SnapshotNs int64
	TermNs     int64
}

// MemPressure is the runtime's deterministic occupancy signal, sampled on
// demand (admission gates read it at request arrival, which is a
// safepoint-aligned instant in the simulation). All fields are exact
// counters, not estimates, so two runs of the same schedule read the same
// values.
type MemPressure struct {
	// ActiveChunks / BudgetChunks is the occupancy ratio; BudgetChunks
	// is 0 when the heap is unbounded (occupancy then has no ceiling).
	ActiveChunks int
	BudgetChunks int
	// SurvivedWords is the active chunkage right after the last global
	// collection: memory even a full collection could not reclaim.
	SurvivedWords int
	// Overdrafts counts chunk activations past the budget (collections
	// completing mid-copy); AllocFailed counts mutator allocations that
	// failed after the emergency ladder; EmergencyGCs counts ladder
	// walks.
	Overdrafts   int
	AllocFailed  int64
	EmergencyGCs int64
}

// MemPressure returns the current occupancy/pressure counters.
func (rt *Runtime) MemPressure() MemPressure {
	var failed, emerg int64
	for _, vp := range rt.VProcs {
		failed += vp.Stats.AllocFailed
		emerg += vp.Stats.EmergencyGCs
	}
	return MemPressure{
		ActiveChunks:  rt.Chunks.ActiveChunks(),
		BudgetChunks:  rt.Chunks.BudgetChunks,
		SurvivedWords: rt.Stats.LastGlobalSurvivedWords,
		Overdrafts:    rt.Chunks.Overdrafts,
		AllocFailed:   failed,
		EmergencyGCs:  emerg,
	}
}

// NewRuntime builds a runtime from the configuration. Descriptor
// registration must happen before the first allocation of the corresponding
// mixed type; use rt.Descs.Register.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		Cfg:     cfg,
		Machine: numa.NewMachine(cfg.Topo),
		Pages:   mempage.NewTable(cfg.Policy, cfg.Topo.NumNodes()),
		Descs:   heap.NewTable(),
		Eng:     vtime.NewEngine(cfg.NumVProcs),
		cycle:   newSweepCycle(cfg.NumVProcs, cfg.StealAttemptNs, cfg.PollNs),
	}
	if cfg.SpanWorkers > 1 {
		rt.Eng.SetParallel(cfg.SpanWorkers)
	}
	rt.Eng.SetDeadlockNote(func() string {
		if len(rt.dozers) == 0 {
			return ""
		}
		return fmt.Sprintf("core: the dozing procs are idle vprocs sweeping for work that nothing is left to supply; outstanding tasks: %d", rt.outstanding)
	})
	rt.Space = heap.NewSpace(rt.Pages)
	rt.Space.Debug = cfg.Debug
	rt.Chunks = heap.NewChunkManager(rt.Space, cfg.ChunkWords, cfg.Topo.NumNodes())
	rt.Chunks.NodeAffine = cfg.NodeAffineChunks
	rt.Chunks.Debug = cfg.Debug
	rt.Chunks.BudgetChunks = cfg.GlobalBudgetChunks

	cores := cfg.Topo.SparseCoreAssignment(cfg.NumVProcs)
	for i := 0; i < cfg.NumVProcs; i++ {
		core := cores[i]
		node := cfg.Topo.NodeOfCore(core)
		vp := &VProc{
			ID:   i,
			Core: core,
			Node: node,
			rt:   rt,
			proc: rt.Eng.Proc(i),
			dz:   dozeState{at: -1},
		}
		// Local heap pages are placed by the policy on behalf of the
		// vproc's node: under the local policy they are node-local;
		// under interleaved/single-node they land elsewhere, which is
		// exactly the experiment of §4.3.
		r := rt.Space.NewRegion(heap.RegionLocal, i, cfg.LocalHeapWords, node)
		vp.Local = heap.NewLocalHeap(r)
		rt.VProcs = append(rt.VProcs, vp)
	}
	rt.global.init(rt)
	return rt, nil
}

// MustNewRuntime is NewRuntime, panicking on configuration errors.
func MustNewRuntime(cfg Config) *Runtime {
	rt, err := NewRuntime(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// getChunk hands the vproc a fresh current chunk and charges the
// synchronization cost: node-local for a reused chunk, global for a fresh
// system allocation (§3.3). During the scan phase of a global collection,
// a replaced chunk that still holds unscanned data is queued on its node's
// scan list. The free lists are mutated before the charge and the chunk is
// installed after it; other vprocs run in between, so the order is part of
// every schedule. A chunk that replaces one the vproc filled is committed
// whole at once (Chunk.CommitWhole); the vproc's first chunk, and its first
// after a global collection condemned its last, grows in window steps. Host
// storage only: no simulated address or charge depends on it.
func (rt *Runtime) getChunk(vp *VProc) {
	replacing := vp.curChunk != nil
	if rt.global.scanning {
		if old := vp.curChunk; old != nil && old.Scan < old.Top {
			if old == vp.scanningChunk {
				// The vproc is mid-step in this very chunk;
				// enqueueing it now would let another vproc
				// advance the same scan pointer concurrently.
				vp.deferredEnqueue = true
			} else {
				rt.enqueueScan(old)
			}
		}
	}
	c, sync := rt.Chunks.Get(vp.Node, vp.ID)
	vp.Stats.ChunksRequested++
	if sync == heap.SyncGlobal {
		vp.advance(chunkSyncGlobalNs)
	} else {
		vp.advance(chunkSyncLocalNs)
	}
	if rt.Cfg.Debug {
		for _, o := range rt.VProcs {
			if o != vp && o.curChunk == c {
				panic(fmt.Sprintf("core: chunk r%d handed to vproc %d while vproc %d still allocates into it",
					c.Region.ID, vp.ID, o.ID))
			}
		}
	}
	if replacing {
		c.CommitWhole()
	}
	vp.curChunk = c

	// §3.4: global collection is triggered when the allocated global
	// chunkage exceeds the threshold. Checking here covers every growth
	// path (major collections, promotions, proxies, refs). The request
	// only raises the flag; collection starts at the next safepoint.
	// Under the concurrent collector the threshold is the pacer's moving
	// trigger, and it is inert for the whole mark (gcTrigger).
	if !rt.global.pending && rt.Chunks.AllocatedWords > rt.gcTrigger() {
		rt.requestGlobalGC(vp)
	}
}

// globalAllocDst returns the vproc's current chunk with room for
// payloadWords, fetching new chunks as needed.
func (rt *Runtime) globalAllocDst(vp *VProc, payloadWords int) *heap.Chunk {
	if payloadWords+1 > rt.Cfg.ChunkWords-1 {
		panic(fmt.Sprintf("core: object of %d words exceeds chunk size %d", payloadWords, rt.Cfg.ChunkWords))
	}
	if vp.curChunk == nil || !vp.curChunk.CanAlloc(payloadWords) {
		rt.getChunk(vp)
	}
	if rt.global.marking {
		// Allocation-paced assists: global allocation during a concurrent
		// mark accrues scan debt this vproc pays at its next safepoint.
		vp.assistDebt += payloadWords + 1
	}
	return vp.curChunk
}

// Run executes entry as the initial task on vproc 0 and drives all vprocs
// until every spawned task has completed. It returns the virtual makespan
// in nanoseconds. The entry is a task like any other: it is counted and
// released by runTask, sits on vproc 0's running stack (so a crash mid-entry
// loses it there), and the roots it leaves pushed are popped when it returns.
func (rt *Runtime) Run(entry func(vp *VProc)) int64 {
	rt.outstanding = 1
	rt.Eng.Run(func(p *vtime.Proc) {
		vp := rt.VProcs[p.ID]
		// A crashed vproc unwinds its whole stack with the vprocCrashed
		// sentinel (see crash.go); recovering it here lets the engine
		// retire the proc normally. Everything else propagates.
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(vprocCrashed); !ok {
					panic(r)
				}
			}
		}()
		if p.ID == 0 {
			vp.runTask(&Task{Fn: func(vp *VProc, _ Env) { entry(vp) }})
		}
		vp.schedulerLoop(nil)
	})
	return rt.Eng.MaxClock()
}

// StepTaskTurns returns how many of the engine's inline turns
// (vtime.EngineStats.InlineTurns) ran a step task's turn inside an idle
// sweep (sweepStep); the rest are the sweeps' own idle turns and other step
// machines'.
func (rt *Runtime) StepTaskTurns() int64 { return rt.stepTurns }

// StepDeclines counts the cost forms that declined, by the work their direct
// form does instead. An allocation (CostAllocRaw, CostAllocVector, a step
// task's) declines for the first of: a due timer, a thief in the heap, a
// global collection requested or terminating, a concurrent mark, a full
// nursery. A send (SendOp) declines to allocate the channel's record, to
// fetch a chunk for its proxy or queue node, or on a full mailbox; a proxy's
// consumption when the owner's heap is locked, for a promotion that copies
// more than one pointer-free object into room the current chunk has, or to
// shade its result during a mark.
type StepDeclines struct {
	Timer, Thief, GlobalGC, Mark, Nursery int64
	Record, Chunk, Mailbox                int64
	OwnerBusy, Promote, Shade             int64
}

// StepDeclines returns the run's cost-form declines.
func (rt *Runtime) StepDeclines() StepDeclines { return rt.declines }

// TotalStats sums the per-vproc statistics, field by field: every VPStats
// field is an integer counter, so a counter added to the struct is summed
// without being named here (and a field of another kind panics on first use
// instead of being dropped silently).
func (rt *Runtime) TotalStats() VPStats {
	var t VPStats
	sum := reflect.ValueOf(&t).Elem()
	for _, vp := range rt.VProcs {
		s := reflect.ValueOf(&vp.Stats).Elem()
		for i := 0; i < sum.NumField(); i++ {
			sum.Field(i).SetInt(sum.Field(i).Int() + s.Field(i).Int())
		}
	}
	return t
}
