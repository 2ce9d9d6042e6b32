// Package manticore is a reproduction of the runtime system and NUMA-aware
// garbage collector of
//
//	Auhagen, Bergstrom, Fluet, Reppy.
//	"Garbage Collection for Multicore NUMA Machines" (PLDI SRC 2011 /
//	arXiv:1105.2554).
//
// Because Go offers no control over physical page placement or raw heap
// words, the machine is simulated: a deterministic virtual-time engine runs
// one goroutine per vproc, every memory operation is charged against an
// explicit NUMA topology model (the paper's 48-core AMD Magny-Cours and
// 32-core Intel Xeon machines are built in), and heap objects live in
// simulated regions with the paper's exact header encoding. The collector
// itself — per-vproc Appel semi-generational local heaps, a chunked global
// heap with node affinity, minor/major/global phases, object promotion,
// object proxies, and work stealing with lazy promotion — is implemented
// directly.
//
// Quick start:
//
//	cfg := manticore.Defaults(manticore.AMD48(), 8)
//	rt, _ := manticore.New(cfg)
//	elapsed := rt.Run(func(w *manticore.Worker) {
//	    a := w.AllocRaw([]uint64{42})
//	    slot := w.PushRoot(a)
//	    _ = w.Root(slot)
//	})
package manticore

import (
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// Worker is a virtual processor executing simulated mutator code. All
// allocation, field access, fork/join and promotion go through it.
type Worker = core.VProc

// Env gives task closures GC-safe access to captured heap references.
type Env = core.Env

// Task is a spawned unit of work.
type Task = core.Task

// Addr is a simulated heap address.
type Addr = heap.Addr

// Config configures a runtime; see core.Config for all fields.
type Config = core.Config

// Stats aggregates per-vproc runtime statistics.
type Stats = core.VPStats

// GCEvent describes one garbage-collection phase, for tracing.
type GCEvent = core.GCEvent

// RawField and PtrField are the non-pointer and pointer fields
// Worker.AllocMixed writes into a new mixed-type object: a payload offset
// and the word, or the root slot holding the address, to store there.
type (
	RawField = core.RawField
	PtrField = core.PtrField
)

// AllocStatus is the outcome of a fallible Worker.TryAlloc* / TryPromote
// attempt under a bounded heap (Config.GlobalBudgetChunks) — allocation
// failure as a status, never a panic.
type AllocStatus = core.AllocStatus

// Allocation statuses.
const (
	AllocOK     = core.AllocOK
	AllocFailed = core.AllocFailed
)

// Topology models a NUMA machine.
type Topology = numa.Topology

// Policy selects physical page placement (§4.3 of the paper).
type Policy = mempage.Policy

// Page placement policies.
const (
	// PolicyLocal allocates pages on the requesting vproc's node (the
	// paper's default; Figure 5).
	PolicyLocal = mempage.PolicyLocal
	// PolicyInterleaved balances pages across nodes (GHC-style;
	// Figure 6).
	PolicyInterleaved = mempage.PolicyInterleaved
	// PolicySingleNode places all pages on node 0 (Figure 7).
	PolicySingleNode = mempage.PolicySingleNode
)

// AMD48 returns the paper's 48-core AMD Opteron "Magny-Cours" machine
// (Appendix A.1).
func AMD48() *Topology { return numa.AMD48() }

// Intel32 returns the paper's 32-core Intel Xeon X7560 machine
// (Appendix A.2).
func Intel32() *Topology { return numa.Intel32() }

// MachinePreset returns a machine by name ("amd48" or "intel32").
func MachinePreset(name string) (*Topology, error) { return numa.Preset(name) }

// ParsePolicy converts a policy name ("local", "interleaved",
// "single-node") to a Policy.
func ParsePolicy(s string) (Policy, error) { return mempage.ParsePolicy(s) }

// Defaults returns the default configuration for a machine and vproc count.
func Defaults(topo *Topology, vprocs int) Config {
	return core.DefaultConfig(topo, vprocs)
}

// Runtime is an assembled simulated machine plus the Manticore runtime.
type Runtime struct {
	*core.Runtime
}

// New builds a runtime from a configuration.
func New(cfg Config) (*Runtime, error) {
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return &Runtime{Runtime: rt}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// RegisterRecord registers a mixed-type object layout (the analogue of the
// compiler emitting an object-descriptor table entry, §3.2) and returns its
// object ID for Worker.AllocMixed, which takes the fields to fill as
// RawField and PtrField slices.
func (rt *Runtime) RegisterRecord(name string, sizeWords int, ptrFields []int) uint16 {
	return rt.Descs.Register(name, sizeWords, ptrFields)
}

// Run executes entry as the first task on vproc 0 and drives all vprocs until
// quiescence, returning the virtual makespan in nanoseconds. Roots the entry
// leaves pushed are popped when it returns.
func (rt *Runtime) Run(entry func(w *Worker)) int64 {
	return rt.Runtime.Run(entry)
}
