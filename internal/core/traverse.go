package core

import (
	"fmt"

	"repro/internal/heap"
)

// What a collection traces on behalf of one vproc, declared once. Every
// collector and both verifiers reach a vproc's host-side roots through
// rootCursor, and its roots plus local heap through heapSites; the object
// framing and the slot order underneath are heap.ObjectWalk and
// heap.SlotCursor. A site is a *heap.Addr the visitor reads; a visitor that
// rewrites it does so through the cursor's store, before asking for the next
// one (a proxy's local slot is found through its just-forwarded address).

// rootKind names the kinds of host-side root site, in traversal order.
type rootKind int

const (
	rootStack  rootKind = iota // vp.roots[i]
	rootQueued                 // env[j] of queued task i, oldest first
	rootProxy                  // proxy i: its address (j=0), then its local slot (j=1)
	rootResult                 // result of unjoined task i
	rootParked                 // env[j] of parked continuation i (timer continuations included)
	rootEnd
)

var rootKindNames = [rootEnd]string{"root", "queued task", "proxy", "result", "parked continuation"}

// rootCursor is a resumable cursor over one vproc's host-side root sites.
// (kind, i, j) name the site most recently returned by next.
type rootCursor struct {
	vp   *VProc
	kind rootKind
	i, j int
}

// rootSites returns a cursor positioned before the vproc's first root site.
func (vp *VProc) rootSites() rootCursor { return rootCursor{vp: vp, j: -1} }

// next returns the next root site, or nil after the last. This is the one
// enumeration of a vproc's roots: the order below is the order every
// collector forwards in, and so part of every schedule. To add a kind of
// root, add it here (and its name above) and add a row to
// TestVerifierSeesEveryRootSite; every collector and verifier then sees it.
func (c *rootCursor) next() *heap.Addr {
	vp := c.vp
	c.j++
	for {
		// rows of the current kind, sites in its row i, and the site at
		// (i, j) when there is one.
		var rows, width int
		var site *heap.Addr
		switch c.kind {
		case rootStack:
			rows, width = len(vp.roots), 1
			if c.i < rows {
				site = &vp.roots[c.i]
			}
		case rootQueued:
			rows = vp.queue.size()
			if c.i < rows {
				env := vp.queue.at(c.i).env
				if width = len(env); c.j < width {
					site = &env[c.j]
				}
			}
		case rootProxy:
			// The local slot is normally a local-heap address, but once
			// the proxied object has been promoted it holds a global one,
			// which a global collection condemns like any other. Only
			// the owner sees the slot (the chunk scanners trace just the
			// global slot), so it is a root site of the owner, found
			// through the proxy's current address.
			rows, width = len(vp.proxies), 2
			if c.i < rows {
				site = &vp.proxies[c.i]
				if c.j == 1 {
					site = c.proxyLocalSlot()
				}
			}
		case rootResult:
			rows, width = len(vp.resultTasks), 1
			if c.i < rows {
				site = &vp.resultTasks[c.i].result
			}
		case rootParked:
			rows = len(vp.parked)
			if c.i < rows {
				// The task's last env entry is the message's slot, which
				// nothing has been delivered into while it is parked.
				env := vp.parked[c.i].task.env
				if width = len(env) - 1; c.j < width {
					site = &env[c.j]
				}
			}
		default:
			return nil
		}
		switch {
		case c.i >= rows:
			c.kind, c.i, c.j = c.kind+1, 0, 0
		case c.j >= width:
			c.i, c.j = c.i+1, 0
		default:
			return site
		}
	}
}

// proxyLocalSlot points at the local slot of proxy i, in its chunk.
func (c *rootCursor) proxyLocalSlot() *heap.Addr {
	return (*heap.Addr)(&c.vp.rt.Space.Payload(c.vp.proxies[c.i])[heap.ProxyLocalSlot])
}

// store writes v to site, the site next returned last, at once. A proxy's
// local slot is located again first: the visit that computed v may have
// bumped into the proxy's chunk, detaching the pointer next handed out
// (heap.Space.Payload).
func (c *rootCursor) store(site *heap.Addr, v heap.Addr) {
	if c.kind == rootProxy && c.j == 1 {
		site = c.proxyLocalSlot()
	}
	*site = v
}

// String names the site most recently returned by next, for the verifiers' errors.
func (c *rootCursor) String() string {
	s := fmt.Sprintf("vproc %d %s %d", c.vp.ID, rootKindNames[c.kind], c.i)
	switch {
	case c.kind == rootQueued || c.kind == rootParked:
		s += fmt.Sprintf(" env %d", c.j)
	case c.kind == rootProxy && c.j == 1:
		s += " local slot"
	}
	return s
}

// forwardRoots applies a forwarding function to every root site of the vproc.
func (vp *VProc) forwardRoots(forward func(heap.Addr) heap.Addr) {
	c := vp.rootSites()
	for site := c.next(); site != nil; site = c.next() {
		c.store(site, forward(*site))
	}
}

// heapSites is a resumable cursor over every pointer site a global collection
// traces on behalf of one vproc (§3.4: "scans the vproc's roots and local
// heap"): its root sites, then each pointer slot of the live objects in its
// old-data area [1, OldTop) and, when the nursery was not emptied by a
// minor collection first, in [NurseryStart, Alloc). Objects a promotion moved
// away are skipped.
type heapSites struct {
	roots   rootCursor
	walk    heap.ObjectWalk // the heap area being walked
	nursery bool            // the nursery span is still to come
	slots   heap.SlotCursor // the object being scanned
}

// heapSites returns a cursor positioned before the vproc's first site.
func (vp *VProc) heapSites(withNursery bool) heapSites {
	lh := vp.Local
	return heapSites{roots: vp.rootSites(), walk: lh.Region.Walk(1, lh.OldTop), nursery: withNursery}
}

// next returns the next site, or nil after the last.
func (c *heapSites) next() *heap.Addr {
	if c.roots.kind != rootEnd {
		if site := c.roots.next(); site != nil {
			return site
		}
	}
	rt := c.roots.vp.rt
	for {
		if site := c.slots.Next(); site != nil {
			return site
		}
		obj, h, ok := c.walk.Next()
		switch {
		case ok && heap.IsHeader(h):
			c.slots = rt.Space.Slots(rt.Descs, obj, h)
		case ok: // promoted away: nothing of it is left to trace here
		case c.nursery:
			c.nursery = false
			lh := c.roots.vp.Local
			c.walk = lh.Region.Walk(lh.NurseryStart, lh.Alloc)
		default:
			return nil
		}
	}
}

// store writes v to site, the site next returned last (see rootCursor.store;
// once the roots are exhausted it is a plain store).
func (c *heapSites) store(site *heap.Addr, v heap.Addr) { c.roots.store(site, v) }
