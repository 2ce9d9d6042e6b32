// Package core implements the Manticore runtime and its NUMA-aware garbage
// collector: vprocs with private Appel semi-generational local heaps, a
// chunked global heap with node affinity, minor/major/global collection
// phases, object promotion, object proxies, and a work-stealing scheduler
// with lazy promotion. This is the paper's primary contribution (§2-3).
package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// Config configures a Runtime. The zero value is not usable; call
// DefaultConfig and adjust. The model's fixed costs and the pacer's growth
// goal are not fields: they are the constants below Config (allocFixedNs
// through gcPercent), because nothing varies them.
type Config struct {
	// Topo is the machine model.
	Topo *numa.Topology
	// Policy is the physical page placement policy (§4.3).
	Policy mempage.Policy
	// NumVProcs is the number of virtual processors (§2.2). VProcs are
	// assigned sparsely across nodes when fewer than the core count.
	NumVProcs int

	// LocalHeapWords is the fixed local heap size (§3.1: "chosen so that
	// the local heaps will fit into the L3 cache").
	LocalHeapWords int
	// ChunkWords is the global-heap chunk size.
	ChunkWords int
	// GlobalTriggerWords triggers a global collection when active global
	// chunkage exceeds it (§3.4: #vprocs x 32MB in the paper; scaled
	// here). Zero means NumVProcs * 16 * ChunkWords.
	GlobalTriggerWords int
	// MinNurseryWords triggers a major collection when the post-minor
	// nursery would fall below it (§3.3). Zero means LocalHeapWords/8.
	MinNurseryWords int
	// GlobalBudgetChunks bounds the global heap at that many active
	// chunks. 0 means unbounded — the paper's model, and bit-identical
	// to every pre-budget baseline. With a budget set, mutator
	// allocation gates (TryAlloc*, TryPromote) walk the emergency
	// collection ladder when headroom runs out and report AllocFailed
	// as a status rather than growing the heap; collections themselves
	// always complete by overdrafting.
	GlobalBudgetChunks int

	// LazyPromotion promotes task environments only when stolen (the
	// default, after [Rai10]); disabled, environments are promoted
	// eagerly at spawn time (ablation).
	LazyPromotion bool
	// YoungPartition keeps the just-copied young data out of major
	// collections to avoid premature promotion (§3.3); disabling it is
	// an ablation.
	YoungPartition bool
	// NodeAffineChunks preserves chunk node affinity on reuse (§3.1);
	// disabling it is an ablation.
	NodeAffineChunks bool
	// NodeLocalScan makes global GC scanning prefer node-local chunk
	// lists (§3.4); disabling it uses one shared list (ablation).
	NodeLocalScan bool

	// ConcurrentGlobal replaces the stop-the-world global collection with
	// the mostly-concurrent design: a tri-color incremental mark
	// interleaved with mutator steps, bracketed by two short STW windows
	// (root snapshot and mark termination), with a Dijkstra-style
	// insertion write barrier on global-pointer stores and mark assists
	// paced by a GOGC-style trigger. Off (the default), the legacy STW
	// collector runs and every schedule is bit-identical to the
	// pre-concurrent baselines.
	ConcurrentGlobal bool

	// Debug runs the whole-heap invariant verifier after every
	// collection phase. Slow; for tests.
	Debug bool

	// The idle loop's costs, in virtual nanoseconds. Nothing varies them
	// either: they stay fields only while benchmark/probes.go reads them,
	// and then join the constants below Config.
	StealAttemptNs int64 // probing a victim deque
	PollNs         int64 // idle poll interval

	// Seed makes randomized workloads deterministic.
	Seed uint64

	// SpanWorkers selects the engine's schedule (vtime.Engine.SetParallel).
	// 0 or 1 runs the serial engine; any N >= 2 runs interaction-free idle
	// machines in span windows below conservative edges, the same schedule
	// for every such N, on the engine's own thread. Virtual results are
	// bit-identical for every value.
	SpanWorkers int
}

// Model cost constants, in virtual nanoseconds.
const (
	allocFixedNs      = 2   // fixed cost per allocation (bump + init)
	stealHitNs        = 250 // CAS to take a task
	chunkSyncLocalNs  = 150 // node-local chunk free-list pop
	chunkSyncGlobalNs = 900 // fresh chunk allocation + registration
	signalVProcNs     = 80  // zeroing one vproc's limit pointer
	stwBarrierNs      = 600 // stop-the-world rendezvous (not the write barrier)
	spinNs            = 60  // heap-busy handshake spin
)

// gcPercent is the pacer's heap-growth goal in percent, GOGC-style: the next
// concurrent cycle aims to finish before the active global heap grows past
// survived*(1+gcPercent/100) words. Only the concurrent collector consults
// it; the STW collector keeps its fixed GlobalTriggerWords trigger.
const gcPercent = 100

// DefaultConfig returns a configuration with the paper's defaults at a
// simulation-friendly scale. Local heaps default to a size that fits the
// machine's L3 (scaled down), chunks to 64 KB, and the global trigger to
// NumVProcs x 16 chunks.
func DefaultConfig(topo *numa.Topology, nvprocs int) Config {
	return Config{
		Topo:               topo,
		Policy:             mempage.PolicyLocal,
		NumVProcs:          nvprocs,
		LocalHeapWords:     64 << 10, // 512 KB
		ChunkWords:         16 << 10, // 128 KB
		GlobalTriggerWords: 0,        // derived
		MinNurseryWords:    0,        // derived
		LazyPromotion:      true,
		YoungPartition:     true,
		NodeAffineChunks:   true,
		NodeLocalScan:      true,
		StealAttemptNs:     120,
		PollNs:             400,
		Seed:               0x9E3779B97F4A7C15,
	}
}

// CheckObjectWords reports whether an object of the given payload words can
// be allocated under the configuration: it must fit a chunk, where a global
// allocation or a promotion puts it, and the nursery of a fresh local heap,
// where a local allocation puts it. A workload states its largest object
// (workload.Spec.MaxObjectWords), so a run that could not hold it is
// rejected before it starts rather than panicking midway.
func (c Config) CheckObjectWords(words int) error {
	if fit := c.ChunkWords - 2; words > fit {
		return fmt.Errorf("an object of %d words exceeds chunk size %d (one of at most %d fits)", words, c.ChunkWords, fit)
	}
	if nursery := heap.FreshNurseryWords(c.LocalHeapWords); words > nursery-1 {
		return fmt.Errorf("an object of %d words exceeds the %d-word nursery of a fresh %d-word local heap (one of at most %d fits)",
			words, nursery, c.LocalHeapWords, nursery-1)
	}
	return nil
}

// normalize fills derived defaults and validates.
func (c *Config) normalize() error {
	if c.Topo == nil {
		return fmt.Errorf("core: Config.Topo is nil")
	}
	if c.NumVProcs <= 0 || c.NumVProcs > c.Topo.NumCores() {
		return fmt.Errorf("core: NumVProcs %d out of range [1,%d]", c.NumVProcs, c.Topo.NumCores())
	}
	if c.LocalHeapWords < 1024 {
		return fmt.Errorf("core: LocalHeapWords %d too small (min 1024)", c.LocalHeapWords)
	}
	if c.ChunkWords < 64 {
		return fmt.Errorf("core: ChunkWords %d too small (min 64)", c.ChunkWords)
	}
	// Beyond the word-index field of heap.Addr two words of one region
	// would share an address.
	if c.LocalHeapWords > heap.MaxRegionWords {
		return fmt.Errorf("core: LocalHeapWords %d too large (max %d)", c.LocalHeapWords, heap.MaxRegionWords)
	}
	if c.ChunkWords > heap.MaxRegionWords {
		return fmt.Errorf("core: ChunkWords %d too large (max %d)", c.ChunkWords, heap.MaxRegionWords)
	}
	if c.MinNurseryWords == 0 {
		c.MinNurseryWords = c.LocalHeapWords / 8
	}
	if c.GlobalTriggerWords == 0 {
		c.GlobalTriggerWords = c.NumVProcs * 16 * c.ChunkWords
	}
	if c.GlobalBudgetChunks < 0 {
		return fmt.Errorf("core: GlobalBudgetChunks %d negative", c.GlobalBudgetChunks)
	}
	if c.SpanWorkers < 0 {
		return fmt.Errorf("core: SpanWorkers %d negative", c.SpanWorkers)
	}
	// A negative charge panics inside the engine mid-run, and a wait loop
	// whose charge is zero never lets virtual time reach what it waits for.
	for _, k := range []struct {
		name string
		ns   int64
	}{
		{"StealAttemptNs", c.StealAttemptNs},
		{"PollNs", c.PollNs},
	} {
		if k.ns < 0 {
			return fmt.Errorf("core: %s %d negative", k.name, k.ns)
		}
		if k.ns == 0 {
			return fmt.Errorf("core: %s is zero: the loop it paces would charge nothing", k.name)
		}
	}
	if c.GlobalBudgetChunks > 0 && c.GlobalBudgetChunks < c.NumVProcs {
		// Every vproc must be able to hold at least one global chunk or
		// the first round of promotions already lives in permanent
		// overdraft; reject rather than clamp.
		return fmt.Errorf("core: GlobalBudgetChunks %d below NumVProcs %d", c.GlobalBudgetChunks, c.NumVProcs)
	}
	return nil
}
