package heap

import "fmt"

// LocalHeap is one vproc's private heap, organized per Appel's
// semi-generational scheme (§3.3, Figures 2-3): a fixed-size region split
// into an old-data area at the bottom and a nursery at the top, with the
// old-data area further partitioned into "old" data and "young" data (the
// objects copied in by the most recent minor collection).
//
// Word layout (region word indices):
//
//	[1, YoungStart)        old data (candidates for the next major GC)
//	[YoungStart, OldTop)   young data (just copied; never promoted by the
//	                       immediately following major GC, §3.3)
//	[OldTop, NurseryStart) reserve: target space for the next minor GC
//	[NurseryStart, Alloc)  newly allocated data
//	[Alloc, Limit)         free nursery space
//
// Limit is the allocation-limit pointer; the runtime zeroes it to force the
// vproc to a safepoint (§3.4).
//
// Storage is committed as the heap fills, in two windows (see Region). The
// nursery window is based at NurseryStart and Bump grows it ahead of the bump
// pointer. The old-area window covers words from 0 and grows as a minor
// collection's copies into the reserve need it (Region.OldWindow). Both grow
// in the same steps, and a heap that outgrows the last one is committed
// whole. A collection that moves the nursery keeps the nursery window's
// array, so a heap that collects holds what its old area and its nursery
// have held at their fullest, never the whole region for having collected.
type LocalHeap struct {
	Region *Region

	YoungStart   int
	OldTop       int
	NurseryStart int
	Alloc        int
	Limit        int

	// realLimit preserves the nursery end while Limit is zeroed for a
	// preemption signal.
	realLimit int
}

// NewLocalHeap carves a fresh local heap out of a region: the whole free
// space is empty old area, and the nursery occupies the upper half, where the
// region's nursery window is placed.
func NewLocalHeap(r *Region) *LocalHeap {
	h := &LocalHeap{Region: r, YoungStart: 1, OldTop: 1}
	h.resetNursery()
	return h
}

// resetNursery recomputes the nursery as the upper half of the free space
// above OldTop (Figure 2: "the remaining free space in the local heap is
// divided in half and the upper half will be used as the new nursery").
func (h *LocalHeap) resetNursery() {
	r := h.Region
	h.NurseryStart = nurseryStart(h.OldTop, r.Size)
	h.Alloc = h.NurseryStart
	// The nursery window moves with the nursery and keeps its array: the
	// nursery is empty, and Bump zeroes every word it hands out.
	r.rebase(h.NurseryStart)
	// Preserve a pending preemption signal: a collection that finishes
	// while a global GC request is in flight must not clobber the zeroed
	// limit pointer.
	signaled := h.Limit == 0 && h.realLimit > 0
	h.realLimit = r.Size
	if signaled {
		h.Limit = 0
	} else {
		h.Limit = h.realLimit
	}
}

// nurseryStart is where the nursery of a size-word heap begins when its old
// area ends at oldTop. The reserve (lower half of the free space) must be
// able to absorb a completely live nursery (upper half), so the split point
// rounds up.
func nurseryStart(oldTop, size int) int {
	return oldTop + (size-oldTop+1)/2
}

// FreshNurseryWords is the nursery capacity of a fresh size-word heap, the
// largest it ever has: an object must fit it, header included, to be
// allocated locally at all.
func FreshNurseryWords(size int) int { return size - nurseryStart(1, size) }

// ResetNursery recomputes the nursery split after a collection phase has
// adjusted OldTop.
func (h *LocalHeap) ResetNursery() { h.resetNursery() }

// NurseryWords returns the capacity of the current nursery in words.
func (h *LocalHeap) NurseryWords() int { return h.realLimit - h.NurseryStart }

// CanAlloc reports whether an object with the given payload size fits
// below the limit pointer (header word included). This is the paper's
// allocation check (§3.1): a zeroed limit (ZeroLimit) fails it for every
// size, which is how a preemption signal traps the next allocation.
func (h *LocalHeap) CanAlloc(payloadWords int) bool {
	return h.Alloc+payloadWords+1 <= h.Limit
}

// Bump allocates an object with the given header in the nursery and returns
// its address. The payload is zeroed: nursery words are recycled across
// collections, and unspecified pointer fields must read as nil. The caller
// must have checked CanAlloc; allocation into a zeroed Limit is the
// safepoint trap and is the runtime layer's job to catch.
func (h *LocalHeap) Bump(header uint64) Addr {
	n := HeaderLen(header)
	r := h.Region
	end := h.Alloc + 1 + n
	if end > r.Base+len(r.Words) {
		r.reserve(end)
	}
	words := r.Words
	at := h.Alloc - r.Base
	words[at] = header
	payload := words[at+1 : at+1+n]
	for i := range payload {
		payload[i] = 0
	}
	a := MakeAddr(r.ID, h.Alloc+1)
	h.Alloc = end
	return a
}

// ZeroLimit sets the allocation-limit pointer to zero, the signal that
// forces the vproc into garbage-collection code at its next allocation
// check (§3.4 step 2).
func (h *LocalHeap) ZeroLimit() { h.Limit = 0 }

// LimitZeroed reports whether a preemption signal is pending.
func (h *LocalHeap) LimitZeroed() bool { return h.Limit == 0 }

// RestoreLimit clears the preemption signal.
func (h *LocalHeap) RestoreLimit() { h.Limit = h.realLimit }

// check validates the layout invariants; used by tests and debug mode.
func (h *LocalHeap) check() error {
	if !(1 <= h.YoungStart && h.YoungStart <= h.OldTop &&
		h.OldTop <= h.NurseryStart && h.NurseryStart <= h.Alloc &&
		h.Alloc <= h.realLimit && h.realLimit <= h.Region.Size) {
		return fmt.Errorf("heap: local heap layout broken: young=%d oldTop=%d nursery=%d alloc=%d limit=%d size=%d",
			h.YoungStart, h.OldTop, h.NurseryStart, h.Alloc, h.realLimit, h.Region.Size)
	}
	return nil
}

// CheckLayout exposes the layout validation.
func (h *LocalHeap) CheckLayout() error { return h.check() }
