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
	rt := vp.rt
	dst := rt.globalAllocDst(vp, heap.ProxySizeWords)
	pa := dst.Bump(heap.MakeHeader(heap.IDProxy, heap.ProxySizeWords))
	p := rt.Space.Payload(pa)
	p[heap.ProxyOwnerSlot] = uint64(vp.ID)
	// Read the target only now: the chunk reservation above may advance,
	// and a thief promoting stolen work out of this heap can move the
	// object meanwhile — the root slot is kept current, a copy taken
	// before the advance is not.
	p[heap.ProxyLocalSlot] = uint64(vp.roots[localSlot])
	p[heap.ProxyGlobalSlot] = 0
	node := rt.Space.NodeOf(pa)
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, heap.ProxySizeWords*8, numa.AccessMemory))
	if vp.proxyIdx == nil {
		vp.proxyIdx = make(map[heap.Addr]int)
	}
	vp.proxyIdx[pa] = len(vp.proxies)
	vp.proxies = append(vp.proxies, pa)
	return pa
}

// ProxyDeref resolves a proxy to an address the calling vproc may use.
// Three cases:
//   - the proxied object has already been promoted: the global copy;
//   - the caller is the proxy's owner: the local object directly;
//   - otherwise: the object must cross vprocs, so it is promoted out of the
//     owner's heap (with the same handshake a thief uses), recorded in the
//     proxy's global slot, and deregistered from the owner.
func (vp *VProc) ProxyDeref(proxy heap.Addr) heap.Addr {
	rt := vp.rt
	proxy = vp.Resolve(proxy)
	node := rt.Space.NodeOf(proxy)
	vp.advance(rt.Machine.AccessCost(vp.Now(), vp.Core, node, heap.ProxySizeWords*8, numa.AccessMemory))

	// The proxy's address is stable across every advance below (every
	// registered proxy is forwarded to to-space in a global collection's
	// snapshot window), but its chunk may be bumped into meanwhile, which
	// can detach a payload slice (heap.Space.Payload): p is taken again
	// after each advance.
	p := rt.Space.Payload(proxy)
	if g := heap.Addr(p[heap.ProxyGlobalSlot]); g != 0 {
		return g
	}
	owner := rt.VProcs[p[heap.ProxyOwnerSlot]]
	if owner == vp {
		// The local slot may already hold a global address if the
		// object was promoted for another reason; either way it is
		// directly usable by the owner.
		return vp.Resolve(heap.Addr(p[heap.ProxyLocalSlot]))
	}
	// Cross-vproc dereference: promote out of the owner's heap.
	for owner.heapBusy {
		vp.advance(spinNs)
	}
	// The spin (and the probe charge above) advanced, so the observation
	// must be redone before acting on it — the same observe-act discipline
	// as Send's re-checks. Two things can have changed: a third vproc may
	// have resolved this very proxy (promote again and the owner's
	// dropProxy would double-drop), and the owner's collections may have
	// moved the proxied object and reused its old space. Only the proxy's
	// own local slot is kept current by those collections; a pre-advance
	// copy of it can point at a dead forwarding word in reclaimed nursery
	// space, which promoteFrom would chase into an arbitrary — even
	// local-heap — address and cache in the global slot. (This was a real
	// corruption: the open-loop traffic harness hits it within
	// milliseconds at 48 vprocs under GC pressure.)
	p = rt.Space.Payload(proxy)
	if g := heap.Addr(p[heap.ProxyGlobalSlot]); g != 0 {
		return g
	}
	owner.heapBusy = true
	local := heap.Addr(p[heap.ProxyLocalSlot])
	g := vp.promoteFrom(owner, local)
	owner.unlockHeap()
	// Concurrent-mark insertion barrier: promoteFrom passes an
	// already-global address through unchanged, which during a mark can be
	// a still-white (from-space) object — and this store publishes it in a
	// proxy that may already be black. Shade before caching.
	g = vp.gcWriteBarrier(g)
	p = rt.Space.Payload(proxy)
	p[heap.ProxyGlobalSlot] = uint64(g)
	p[heap.ProxyLocalSlot] = 0
	owner.dropProxy(proxy)
	return g
}

// dropProxy removes a resolved proxy from the owner's registry (its local
// slot no longer needs root treatment). Swap-remove through the index map:
// O(1) per resolution, where the former linear scan made channel-heavy
// workloads quadratic in live proxies. The registry's iteration order is
// not semantically significant — it only has to be deterministic, and
// swap-remove is a deterministic function of the operation sequence.
func (vp *VProc) dropProxy(pa heap.Addr) {
	i, ok := vp.proxyIdx[pa]
	if !ok {
		panic(fmt.Sprintf("core: proxy %v not registered with vproc %d", pa, vp.ID))
	}
	last := len(vp.proxies) - 1
	moved := vp.proxies[last]
	vp.proxies[i] = moved
	vp.proxies = vp.proxies[:last]
	delete(vp.proxyIdx, pa)
	if i != last {
		vp.proxyIdx[moved] = i
	}
}
