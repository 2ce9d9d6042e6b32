package core

import "repro/internal/numa"

// chargeBatch fuses the engine advances of a run of modelled memory charges
// issued back-to-back by one vproc — a minor collection's copy loop, its one
// user — without changing any simulated result.
//
// Exactness contract (README "The batched-charge contract"): a charge may
// join the batch only when it is meterless — own-cache traffic on a
// node-local path — because such a charge (a) has a cost that depends on
// nothing but its size, not on virtual time and not on any contention-meter
// state, and (b) during a collection the vproc holds heapBusy, so no other
// vproc can observe the intermediate heap or clock states the fused window
// skips over. Totals are preserved bit-identically because every fused
// transfer keeps its own per-transfer int64 truncation. Any metered charge
// first flushes the pending fused cost, so every meter mutation still
// happens at the exact virtual instant — and in the exact engine-serialized
// order — it would have without batching.
//
// The caller must flush before any engine interaction (barriers, wakes,
// chunk synchronization) and before reading vp.Now() for bookkeeping.
type chargeBatch struct {
	vp      *VProc
	pending int64
}

// copyStream charges Machine.CopyStreamCost for one object copy, fusing
// the advance when both sides are meterless.
func (b *chargeBatch) copyStream(srcNode, dstNode, bytes int, srcKind, dstKind numa.AccessKind) {
	vp := b.vp
	m := vp.rt.Machine
	if m.Meterless(vp.Core, srcNode, srcKind) && m.Meterless(vp.Core, dstNode, dstKind) {
		b.pending += m.CacheStreamCost(bytes) + m.CacheStreamCost(bytes)
		return
	}
	b.flush()
	vp.advance(m.CopyStreamCost(vp.Now(), vp.Core, srcNode, dstNode, bytes, srcKind, dstKind))
}

// flush charges the fused cost to the engine in a single advance.
func (b *chargeBatch) flush() {
	if b.pending != 0 {
		b.vp.advance(b.pending)
		b.pending = 0
	}
}
