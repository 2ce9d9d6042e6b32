package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/numa"
)

// Object proxies (§3.1, footnote 1): "a special kind of object that is used
// to allow references from the global heap back into the local heap. We use
// them in the implementation of our explicit concurrency constructs."
//
// A proxy lives in the global heap and names a local-heap object of its
// owner vproc without the owner having to promote it up front: a CML send
// can enqueue a proxy for a waiting continuation, and the data is promoted
// lazily only if a different vproc ends up needing it. The owner registers
// its proxies so local collections keep the local slot current; the global
// collector traces only the proxy's global slot.

// NewProxy allocates a proxy (in the global heap) for the local object held
// in the given root slot and returns the proxy's global address.
func (vp *VProc) NewProxy(localSlot int) heap.Addr {
	pa, c, _ := vp.proxyBump(localSlot, true)
	vp.advance(c)
	vp.registerProxy(pa)
	return pa
}

// proxyBump is NewProxy up to its charge: the proxy's bump and
// initialization. Unless direct, it declines (ok false, nothing touched) when
// the current chunk has no room for it, which the direct form fetches.
func (vp *VProc) proxyBump(localSlot int, direct bool) (pa heap.Addr, charge int64, ok bool) {
	rt := vp.rt
	if !direct && !vp.chunkRoom(heap.ProxySizeWords) {
		rt.declines.Chunk++
		return 0, 0, false
	}
	dst := rt.globalAllocDst(vp, heap.ProxySizeWords)
	pa = dst.Bump(heap.MakeHeader(heap.IDProxy, heap.ProxySizeWords))
	p := rt.Space.Payload(pa)
	heap.SetProxyOwner(p, vp.ID, -1)
	// Read the target only now: the chunk reservation above may advance,
	// and a thief promoting stolen work out of this heap can move the
	// object meanwhile — the root slot is kept current, a copy taken
	// before the advance is not.
	p[heap.ProxyLocalSlot] = uint64(vp.roots[localSlot])
	p[heap.ProxyGlobalSlot] = 0
	node := rt.Space.NodeOf(pa)
	return pa, rt.Machine.AccessCost(vp.Now(), vp.Core, node, heap.ProxySizeWords*8, numa.AccessMemory), true
}

// registerProxy records a new proxy with its owner, after its charge.
func (vp *VProc) registerProxy(pa heap.Addr) {
	heap.SetProxyOwner(vp.rt.Space.Payload(pa), vp.ID, len(vp.proxies))
	vp.proxies = append(vp.proxies, pa)
}

// chunkRoom reports whether the vproc's current chunk holds an n-word object
// without a fetch: when globalAllocDst takes no chunk-pool charge.
func (vp *VProc) chunkRoom(n int) bool {
	return vp.curChunk != nil && vp.curChunk.CanAlloc(n)
}

// ProxyDeref resolves a proxy to an address the calling vproc may use.
// Three cases:
//   - the proxied object has already been promoted: the global copy;
//   - the caller is the proxy's owner: the local object directly;
//   - otherwise: the object must cross vprocs, so it is promoted out of the
//     owner's heap (with the same handshake a thief uses), recorded in the
//     proxy's global slot, and deregistered from the owner.
func (vp *VProc) ProxyDeref(proxy heap.Addr) heap.Addr {
	o := consumeOp{proxy: proxy, phase: conDeref}
	for !vp.directTurn(o.Step(vp, true)) {
	}
	return o.msg
}

// consumeProxy resolves a received message proxy, deregistering it from its
// owner: channel receives consume the proxy exactly once, so keeping it
// registered would leave the message a permanent GC root of the sender —
// same-vproc traffic would retain and re-copy every consumed payload in all
// subsequent collections. The cross-vproc path (ProxyDeref) already
// deregisters on promotion; the owner's path deregisters here.
func (vp *VProc) consumeProxy(proxy heap.Addr) heap.Addr {
	o := consumeOp{proxy: proxy}
	for !vp.directTurn(o.Step(vp, true)) {
	}
	return o.msg
}

// consumeOp is a proxy's consumption (consumeProxy, or ProxyDeref from its
// own phase) in step form: the body both forms share, one segment per step.
// The cost form declines — touching nothing — where ProxyDeref would spin on
// the owner's heap lock, promote anything but one pointer-free object into
// room the current chunk already has, or shade the result during a
// concurrent mark; the direct form does those in place. The cost form's
// promotion is promoteOne's, in the frame promoteFrom opens
// (beginPromotion), and holds the owner's heapBusy over its charge.
type consumeOp struct {
	proxy heap.Addr
	phase int8
	owner *VProc
	msg   heap.Addr // the result; during a promotion, its copy
	start int64     // a promotion's first instant
	words int64     // a promotion's copied words
}

// Consumption phases: the start, ProxyDeref's start, the owner's read after
// its probe, the cross-vproc read after the probe, the end of a promotion's
// charge, the shade and publish, and the end.
const (
	conStart int8 = iota
	conDeref
	conOwn
	conProbed
	conPromoted
	conShade
	conDone
)

// Step runs the consumption's next segment; direct says whether it may
// block.
func (o *consumeOp) Step(vp *VProc, direct bool) (int64, StepStatus) {
	rt := vp.rt
	for {
		switch o.phase {
		case conStart:
			if o.proxy == 0 {
				o.phase = conDone // close-status wakeup: no message, nothing to consume
				continue
			}
			o.proxy = vp.Resolve(o.proxy)
			p := rt.Space.Payload(o.proxy)
			if rt.VProcs[heap.ProxyOwner(p)] != vp || heap.Addr(p[heap.ProxyGlobalSlot]) != 0 {
				o.phase = conDeref
				continue
			}
			o.phase = conOwn
			return rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(o.proxy), heap.ProxySizeWords*8, numa.AccessMemory), StepCharge
		case conOwn:
			// The proxy's chunk may have grown during the charge (its owner
			// bumps into it): read the slot through a fresh slice.
			o.msg = vp.Resolve(heap.Addr(rt.Space.Payload(o.proxy)[heap.ProxyLocalSlot]))
			vp.dropProxy(o.proxy)
			o.phase = conDone
		case conDeref:
			o.proxy = vp.Resolve(o.proxy)
			o.phase = conProbed
			return rt.Machine.AccessCost(vp.Now(), vp.Core, rt.Space.NodeOf(o.proxy), heap.ProxySizeWords*8, numa.AccessMemory), StepCharge
		case conProbed:
			// The proxy's address is stable across every charge here (every
			// registered proxy is forwarded to to-space in a global
			// collection's snapshot window), but its chunk may be bumped into
			// meanwhile, which can detach a payload slice
			// (heap.Space.Payload): p is taken again after each advance.
			p := rt.Space.Payload(o.proxy)
			if g := heap.Addr(p[heap.ProxyGlobalSlot]); g != 0 {
				o.msg, o.phase = g, conDone
				continue
			}
			owner := rt.VProcs[heap.ProxyOwner(p)]
			if owner == vp {
				// The local slot may already hold a global address if the
				// object was promoted for another reason; either way it is
				// directly usable by the owner.
				o.msg, o.phase = vp.Resolve(heap.Addr(p[heap.ProxyLocalSlot])), conDone
				continue
			}
			// Cross-vproc dereference: promote out of the owner's heap.
			if owner.heapBusy {
				if !direct {
					rt.declines.OwnerBusy++
					return 0, StepDecline
				}
				vp.awaitHeap(owner)
				// The spin advanced, so the observation must be redone
				// before acting on it — the same observe-act discipline as
				// Send's re-checks. Two things can have changed: a third
				// vproc may have resolved this very proxy (promote again and
				// the owner's dropProxy would double-drop), and the owner's
				// collections may have moved the proxied object and reused
				// its old space. Only the proxy's own local slot is kept
				// current by those collections; a pre-advance copy of it can
				// point at a dead forwarding word in reclaimed nursery
				// space, which promoteFrom would chase into an arbitrary —
				// even local-heap — address and cache in the global slot.
				// (This was a real corruption: the open-loop traffic harness
				// hits it within milliseconds at 48 vprocs under GC
				// pressure.)
				p = rt.Space.Payload(o.proxy)
				if g := heap.Addr(p[heap.ProxyGlobalSlot]); g != 0 {
					o.msg, o.phase = g, conDone
					continue
				}
			}
			local := heap.Addr(p[heap.ProxyLocalSlot])
			if direct {
				owner.heapBusy = true
				o.owner, o.phase = owner, conShade
				o.msg = vp.promoteFrom(owner, local)
				owner.unlockHeap()
				continue
			}
			na, words, c, ok := vp.promoteOne(owner, local, true)
			if !ok {
				return 0, StepDecline
			}
			owner.heapBusy = true
			o.owner, o.msg, o.phase = owner, na, conShade
			if words == 0 {
				owner.unlockHeap()
				continue
			}
			o.start, o.words, o.phase = vp.beginPromotion(), words, conPromoted
			return c, StepCharge
		case conPromoted:
			vp.endPromotion(o.start, o.words)
			o.owner.unlockHeap()
			o.phase = conShade
		case conShade:
			// Concurrent-mark insertion barrier: promoteFrom passes an
			// already-global address through unchanged, which during a mark
			// can be a still-white (from-space) object — and this store
			// publishes it in a proxy that may already be black. Shade before
			// caching.
			if rt.global.marking && o.msg != 0 {
				if !direct {
					rt.declines.Shade++
					return 0, StepDecline
				}
				o.msg = vp.gcWriteBarrier(o.msg)
			}
			p := rt.Space.Payload(o.proxy)
			p[heap.ProxyGlobalSlot] = uint64(o.msg)
			p[heap.ProxyLocalSlot] = 0
			o.owner.dropProxy(o.proxy)
			o.phase = conDone
		case conDone:
			return 0, StepDone
		}
	}
}

// dropProxy removes a resolved proxy from the owner's registry (its local
// slot no longer needs root treatment): an O(1) swap-remove at the index the
// proxy carries. The registry's order only has to be deterministic, and
// swap-remove is a deterministic function of the operation sequence.
func (vp *VProc) dropProxy(pa heap.Addr) {
	i := heap.ProxySlot(vp.rt.Space.Payload(pa))
	if i < 0 || i >= len(vp.proxies) || vp.proxies[i] != pa {
		panic(fmt.Sprintf("core: proxy %v not registered with vproc %d", pa, vp.ID))
	}
	last := len(vp.proxies) - 1
	moved := vp.proxies[last]
	heap.SetProxyOwner(vp.rt.Space.Payload(moved), vp.ID, i)
	heap.SetProxyOwner(vp.rt.Space.Payload(pa), vp.ID, -1) // after: moved is pa when i is last
	vp.proxies[i] = moved
	vp.proxies = vp.proxies[:last]
}
