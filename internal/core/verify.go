package core

import (
	"fmt"

	"repro/internal/heap"
)

// The verifiers check the pointers the collectors trace, found through the
// collectors' own traversal (verifyTraced), so the oracle's root set cannot
// be smaller than the one it is an oracle for.

// mustVerify is the Cfg.Debug checkpoint at the end of a collection phase: it
// panics, naming the phase, when the verifier run there found a violation.
func mustVerify(err error, phase string) {
	if err != nil {
		panic(fmt.Sprintf("core: %s: %v", phase, err))
	}
}

// VerifyHeap checks every local heap's layout and then, on every traced
// pointer, the invariants of §2.3/§3.1:
//
//  1. there are no pointers from one vproc's local heap, or from its root
//     sites, to another's local heap;
//  2. there are no pointers from the global heap or from a registered global
//     root into any vproc's local heap (except through the local slot of a
//     registered proxy, which is a root site of its owner);
//  3. no live pointer targets a condemned (from-space) chunk outside a
//     global collection;
//  4. every pointer targets a region that exists, within its bounds;
//  5. every proxy registry agrees with the slots its proxies carry;
//  6. every live channel's pending queue is whole (verifyChannels).
//
// Under Debug it also reports a write through a detached alias, one that
// landed in a backing array a region's window abandoned
// (heap.Space.CheckDetached). It is intended for Debug mode and tests; costs
// are not modelled.
func (rt *Runtime) VerifyHeap() error {
	for _, vp := range rt.VProcs {
		if err := vp.Local.CheckLayout(); err != nil {
			return err
		}
	}
	if err := rt.Space.CheckDetached(); err != nil {
		return err
	}
	err := rt.verifyTraced(func(local *heap.Region, p heap.Addr) error {
		if p == 0 {
			return nil
		}
		if p.RegionID() < 0 || p.RegionID() >= rt.Space.NumRegions() {
			return fmt.Errorf("pointer %v to unknown region", p)
		}
		dst := rt.Space.Region(p.RegionID())
		if dst.Kind == heap.RegionLocal && dst != local {
			if local == nil {
				return fmt.Errorf("global→local pointer %v", p)
			}
			return fmt.Errorf("cross-local pointer from vproc %d heap into vproc %d heap (%v)",
				local.Owner, dst.Owner, p)
		}
		if dst.Kind == heap.RegionChunk && !rt.global.scanning {
			if c := rt.Chunks.ChunkOf(dst.ID); c != nil && c.FromSpace {
				return fmt.Errorf("pointer %v into from-space chunk", p)
			}
		}
		w := p.Word()
		if w < 1 || w > dst.Size {
			return fmt.Errorf("pointer %v outside region bounds", p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rt.verifyChannels()
}

// verifyChannels checks the pending queue of every live channel record among
// the global roots, following each link to its current copy (Space.Resolve):
// the record's count is the number of nodes reachable from its head, no node
// is reached twice, the tail names the last node (nil when the queue is
// empty), and every node is a 2-word vector holding a proxy. A pop that a
// collection undid shows here as one node too many.
func (rt *Runtime) verifyChannels() error {
	seen := map[heap.Addr]bool{}
	for _, pa := range rt.globalRoots {
		rec := rt.Space.Resolve(*pa)
		if rec == 0 || rt.chanDesc == 0 || heap.HeaderID(rt.Space.Header(rec)) != rt.chanDesc {
			continue
		}
		clear(seen)
		if err := rt.verifyQueue(rec, seen); err != nil {
			return fmt.Errorf("channel %v: %w", *pa, err)
		}
	}
	return nil
}

// verifyQueue checks the queue of channel record rec; seen is empty scratch.
func (rt *Runtime) verifyQueue(rec heap.Addr, seen map[heap.Addr]bool) error {
	p := rt.Space.Payload(rec)
	var last heap.Addr
	for n := rt.Space.Resolve(heap.Addr(p[chanHeadSlot])); n != 0; {
		if seen[n] {
			return fmt.Errorf("queue node %v reached twice", n)
		}
		seen[n] = true
		if h := rt.Space.Header(n); heap.HeaderID(h) != heap.IDVector || heap.HeaderLen(h) != qnodeSizeWords {
			return fmt.Errorf("queue node %v is not a %d-word vector (id %d, %d words)", n, qnodeSizeWords, heap.HeaderID(h), heap.HeaderLen(h))
		}
		np := rt.Space.Payload(n)
		if m := rt.Space.Resolve(heap.Addr(np[qnodeMsgSlot])); m == 0 || heap.HeaderID(rt.Space.Header(m)) != heap.IDProxy {
			return fmt.Errorf("queue node %v holds %v, not a proxy", n, m)
		}
		last, n = n, rt.Space.Resolve(heap.Addr(np[qnodeNextSlot]))
	}
	if count := int(p[chanCountSlot]); count != len(seen) {
		return fmt.Errorf("count %d, but %d queue nodes pending", count, len(seen))
	}
	if tail := rt.Space.Resolve(heap.Addr(p[chanTailSlot])); tail != last {
		return fmt.Errorf("tail %v, but the last queue node is %v", tail, last)
	}
	return nil
}

// VerifyTriColor checks the concurrent collector's tri-color invariant at
// mark termination, after the drain and the forwarding repairs but before
// the from-space is released: no traced pointer — root site, local-heap slot,
// to-space chunk slot, forwarding target or global root — may still reference
// a from-space (white) object. A violation is a black→white edge the write
// barrier or a termination rescan missed — exactly the lost-object failure
// the insertion barrier exists to prevent. Debug/test-only; costs are not
// modelled.
func (rt *Runtime) VerifyTriColor() error {
	return rt.verifyTraced(func(_ *heap.Region, p heap.Addr) error {
		if p == 0 || rt.Space.Region(p.RegionID()).Kind != heap.RegionChunk {
			return nil
		}
		if c := rt.Chunks.ChunkOf(p.RegionID()); c != nil && c.FromSpace {
			return fmt.Errorf("from-space pointer %v", p)
		}
		return nil
	})
}

// verifyTraced applies check to every pointer the collectors trace and
// returns the first error, wrapped in the name of the site that holds the
// pointer. The sites are, per vproc, the pointer slots and promotion
// forwarding targets of its old-data area and its nursery and then its root
// sites (rootCursor: root stack, queued task envs, proxy addresses and local
// slots, unjoined results, parked continuation envs); then the slots of every
// active chunk that is not from-space; then the registered global roots.
// local is the one local-heap region the pointer may target: the holder's
// own, or nil for a pointer held in the global heap or by the host program.
// Entry i of a proxy registry must read its vproc as owner and i as slot;
// with verifyRange's check, a dropped proxy must read unregistered.
func (rt *Runtime) verifyTraced(check func(local *heap.Region, p heap.Addr) error) error {
	for _, vp := range rt.VProcs {
		lh := vp.Local
		if err := rt.verifyRange(lh.Region, 1, lh.OldTop, check); err != nil {
			return fmt.Errorf("vproc %d old area: %w", vp.ID, err)
		}
		if err := rt.verifyRange(lh.Region, lh.NurseryStart, lh.Alloc, check); err != nil {
			return fmt.Errorf("vproc %d nursery: %w", vp.ID, err)
		}
		c := vp.rootSites()
		for site := c.next(); site != nil; site = c.next() {
			if err := check(lh.Region, *site); err != nil {
				return fmt.Errorf("%s: %w", c.String(), err)
			}
		}
		for i, pa := range vp.proxies {
			if p := rt.Space.Payload(pa); heap.ProxyOwner(p) != vp.ID || heap.ProxySlot(p) != i {
				return fmt.Errorf("vproc %d proxy %d reads owner %d slot %d", vp.ID, i, heap.ProxyOwner(p), heap.ProxySlot(p))
			}
		}
	}
	for _, c := range rt.Chunks.Active() {
		if c.FromSpace {
			continue
		}
		if err := rt.verifyRange(c.Region, 1, c.Top, check); err != nil {
			return fmt.Errorf("chunk r%d (node %d): %w", c.Region.ID, c.Node, err)
		}
	}
	for i, pa := range rt.globalRoots {
		if err := check(nil, *pa); err != nil {
			return fmt.Errorf("global root %d: %w", i, err)
		}
	}
	return nil
}

// verifyRange applies check to the traced pointers in words [lo, hi) of r:
// each live object's pointer slots, and the target of each forwarding word a
// promotion left (checked before the walk reads the target's length). A
// proxy that reads registered must be the registry entry it names.
func (rt *Runtime) verifyRange(r *heap.Region, lo, hi int, check func(local *heap.Region, p heap.Addr) error) error {
	local := r
	if r.Kind != heap.RegionLocal {
		local = nil
	}
	for w := r.Walk(lo, hi); ; {
		obj, h, ok := w.Next()
		if !ok {
			return nil
		}
		if !heap.IsHeader(h) {
			if err := check(local, heap.ForwardTarget(h)); err != nil {
				return fmt.Errorf("forwarding word at r%d+%d: %w", r.ID, obj.Word()-1, err)
			}
			continue
		}
		if heap.HeaderID(h) == heap.IDProxy {
			p := rt.Space.Payload(obj)
			if v, i := heap.ProxyOwner(p), heap.ProxySlot(p); i >= 0 && (v >= len(rt.VProcs) || i >= len(rt.VProcs[v].proxies) || rt.VProcs[v].proxies[i] != obj) {
				return fmt.Errorf("proxy %v reads registered at slot %d of vproc %d, which holds another", obj, i, v)
			}
		}
		c := rt.Space.Slots(rt.Descs, obj, h)
		for site := c.Next(); site != nil; site = c.Next() {
			if err := check(local, *site); err != nil {
				return fmt.Errorf("object %v (id %d, %d words) slot %d: %w",
					obj, heap.HeaderID(h), heap.HeaderLen(h), c.Slot(), err)
			}
		}
	}
}
