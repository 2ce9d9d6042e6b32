package core

import (
	"fmt"

	"repro/internal/heap"
)

// VerifyHeap walks every local heap and every active global chunk and
// checks the invariants of §2.3/§3.1:
//
//  1. there are no pointers from one vproc's local heap to another's;
//  2. there are no pointers from the global heap into any vproc's local
//     heap (except through the local slot of a registered proxy);
//  3. no live pointer targets a condemned (from-space) chunk outside a
//     global collection;
//  4. every pointer targets a well-formed object (header or forwarding
//     word at the target).
//
// It is intended for Debug mode and tests; costs are not modelled.
func (rt *Runtime) VerifyHeap() error {
	// checkPtr validates a single pointer found in sourceRegion.
	checkPtr := func(src *heap.Region, p heap.Addr) error {
		if p == 0 {
			return nil
		}
		if p.RegionID() < 0 || p.RegionID() >= rt.Space.NumRegions() {
			return fmt.Errorf("pointer %v to unknown region", p)
		}
		dst := rt.Space.Region(p.RegionID())
		if dst.Kind == heap.RegionLocal {
			if src.Kind == heap.RegionChunk {
				return fmt.Errorf("global→local pointer %v", p)
			}
			if src.ID != dst.ID {
				return fmt.Errorf("cross-local pointer from vproc %d heap into vproc %d heap (%v)",
					src.Owner, dst.Owner, p)
			}
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
	}

	// walk scans the objects in region words [lo, hi).
	walk := func(r *heap.Region, lo, hi int) error {
		for scan := lo; scan < hi; {
			h := r.At(scan)
			var n int
			if heap.IsHeader(h) {
				obj := heap.MakeAddr(r.ID, scan+1)
				var werr error
				heap.ScanObject(rt.Space, rt.Descs, obj, func(slot int, p heap.Addr) heap.Addr {
					if werr == nil {
						if err := checkPtr(r, p); err != nil {
							werr = fmt.Errorf("object %v (id %d, %d words) slot %d: %w",
								obj, heap.HeaderID(h), heap.HeaderLen(h), slot, err)
						}
					}
					return p
				})
				if werr != nil {
					return werr
				}
				n = heap.HeaderLen(h)
			} else {
				t := heap.ForwardTarget(h)
				if err := checkPtr(r, t); err != nil {
					return fmt.Errorf("forwarding word at r%d+%d: %w", r.ID, scan, err)
				}
				n = rt.Space.ObjectLen(t)
			}
			scan += n + 1
		}
		return nil
	}

	for _, vp := range rt.VProcs {
		lh := vp.Local
		if err := lh.CheckLayout(); err != nil {
			return err
		}
		if err := walk(lh.Region, 1, lh.OldTop); err != nil {
			return fmt.Errorf("vproc %d old area: %w", vp.ID, err)
		}
		if err := walk(lh.Region, lh.NurseryStart, lh.Alloc); err != nil {
			return fmt.Errorf("vproc %d nursery: %w", vp.ID, err)
		}
		for i, a := range vp.roots {
			if a != 0 {
				dst := rt.Space.Region(a.RegionID())
				if dst.Kind == heap.RegionLocal && dst.ID != lh.Region.ID {
					return fmt.Errorf("vproc %d root %d points into vproc %d's heap", vp.ID, i, dst.Owner)
				}
				if err := checkPtr(lh.Region, a); err != nil {
					return fmt.Errorf("vproc %d root %d: %w", vp.ID, i, err)
				}
			}
		}
	}
	for _, c := range rt.Chunks.Active() {
		if c.FromSpace {
			continue
		}
		if err := walk(c.Region, 1, c.Top); err != nil {
			return fmt.Errorf("chunk r%d (node %d): %w", c.Region.ID, c.Node, err)
		}
	}
	return nil
}

// VerifyTriColor checks the concurrent collector's tri-color invariant at
// mark termination, after the drain and the forwarding repairs but before
// the from-space is released: no root, local-heap slot, to-space chunk slot,
// or forwarding target may still reference a from-space (white) object. A
// violation is a black→white edge the write barrier or a termination rescan
// missed — exactly the lost-object failure the insertion barrier exists to
// prevent. Debug/test-only; costs are not modelled.
func (rt *Runtime) VerifyTriColor() error {
	white := func(p heap.Addr) bool {
		if p == 0 {
			return false
		}
		if rt.Space.Region(p.RegionID()).Kind != heap.RegionChunk {
			return false
		}
		c := rt.Chunks.ChunkOf(p.RegionID())
		return c != nil && c.FromSpace
	}

	// walk checks every traced slot and forwarding target in region words
	// [lo, hi).
	walk := func(r *heap.Region, lo, hi int, what string) error {
		for scan := lo; scan < hi; {
			h := r.At(scan)
			var n int
			if heap.IsHeader(h) {
				obj := heap.MakeAddr(r.ID, scan+1)
				var werr error
				heap.ScanObject(rt.Space, rt.Descs, obj, func(slot int, p heap.Addr) heap.Addr {
					if werr == nil && white(p) {
						werr = fmt.Errorf("%s object %v slot %d holds from-space pointer %v", what, obj, slot, p)
					}
					return p
				})
				if werr != nil {
					return werr
				}
				n = heap.HeaderLen(h)
			} else {
				t := heap.ForwardTarget(h)
				if white(t) {
					return fmt.Errorf("%s forwarding word at r%d+%d targets from-space %v", what, r.ID, scan, t)
				}
				n = rt.Space.ObjectLen(t)
			}
			scan += n + 1
		}
		return nil
	}

	for _, vp := range rt.VProcs {
		lh := vp.Local
		if err := walk(lh.Region, 1, lh.OldTop, fmt.Sprintf("vproc %d old-area", vp.ID)); err != nil {
			return err
		}
		if err := walk(lh.Region, lh.NurseryStart, lh.Alloc, fmt.Sprintf("vproc %d nursery", vp.ID)); err != nil {
			return err
		}
		for i, a := range vp.roots {
			if white(a) {
				return fmt.Errorf("vproc %d root %d holds from-space pointer %v", vp.ID, i, a)
			}
		}
		for i, pa := range vp.proxies {
			if white(pa) {
				return fmt.Errorf("vproc %d proxy %d is from-space (%v)", vp.ID, i, pa)
			}
		}
		for i, t := range vp.resultTasks {
			if white(t.result) {
				return fmt.Errorf("vproc %d result %d holds from-space pointer %v", vp.ID, i, t.result)
			}
		}
	}
	for _, c := range rt.Chunks.Active() {
		if c.FromSpace {
			continue
		}
		if err := walk(c.Region, 1, c.Top, fmt.Sprintf("to-space chunk r%d", c.Region.ID)); err != nil {
			return err
		}
	}
	for i, pa := range rt.globalRoots {
		if white(*pa) {
			return fmt.Errorf("global root %d holds from-space pointer %v", i, *pa)
		}
	}
	return nil
}
