package heap

import "fmt"

// Descriptor describes one mixed-type object layout. In Manticore the
// compiler emits, for every mixed-type object, an entry in an
// object-descriptor table containing pointers to object-scanning and
// forwarding functions specialized to that object's structure (§3.2). We
// mirror that: Register generates a scan closure from the pointer-field
// offsets once, so scanning an object at collection time touches only its
// pointer fields with no per-field type dispatch.
type Descriptor struct {
	Name string
	// SizeWords is the fixed payload size of objects with this
	// descriptor.
	SizeWords int
	// PtrFields lists the payload word offsets that contain pointers.
	PtrFields []int
}

// Table is the object-descriptor table generated "by the compiler" — in
// this reproduction, by workload setup code registering its record layouts.
type Table struct {
	descs []*Descriptor // index 0 corresponds to IDFirstMixed
}

// NewTable creates an empty descriptor table.
func NewTable() *Table { return &Table{} }

// Register adds a descriptor and returns its object ID. The scan function
// is generated here, once, from the pointer offsets.
func (t *Table) Register(name string, sizeWords int, ptrFields []int) uint16 {
	if sizeWords < 0 {
		panic("heap: negative descriptor size")
	}
	for _, f := range ptrFields {
		if f < 0 || f >= sizeWords {
			panic(fmt.Sprintf("heap: descriptor %q pointer field %d out of range [0,%d)", name, f, sizeWords))
		}
	}
	d := &Descriptor{Name: name, SizeWords: sizeWords, PtrFields: append([]int(nil), ptrFields...)}
	t.descs = append(t.descs, d)
	id := uint16(len(t.descs)-1) + IDFirstMixed
	if uint64(id) > idMask {
		panic("heap: descriptor table overflow")
	}
	return id
}

// Lookup returns the descriptor for a mixed object ID.
func (t *Table) Lookup(id uint16) *Descriptor {
	if id < IDFirstMixed || int(id-IDFirstMixed) >= len(t.descs) {
		panic(fmt.Sprintf("heap: no descriptor for ID %d", id))
	}
	return t.descs[id-IDFirstMixed]
}

// Proxy payload layout (ID IDProxy). A proxy is a global-heap object that
// stands for a local-heap object, allowing references from the global heap
// back into a local heap (§3.1 footnote 1); used by the explicit-concurrency
// (CML) constructs.
const (
	// proxyOwnerSlot holds the owning vproc's ID (raw, low 32 bits) and,
	// above it, the proxy's index in its owner's registry plus one.
	proxyOwnerSlot = 0
	// ProxyLocalSlot holds the local-heap address (a pointer into the
	// owner's local heap; never traced by the global collector).
	ProxyLocalSlot = 1
	// ProxyGlobalSlot holds the promoted global copy once the proxied
	// object has been promoted, or nil. Traced by the global collector.
	ProxyGlobalSlot = 2
	// ProxySizeWords is the proxy payload size.
	ProxySizeWords = 3
)

// SetProxyOwner records proxy payload p's owner and its index in the owner's
// registry; slot -1 marks it unregistered.
func SetProxyOwner(p []uint64, owner, slot int) {
	p[proxyOwnerSlot] = uint64(uint32(owner)) | uint64(slot+1)<<32
}

// ProxyOwner returns the ID of the vproc that owns proxy payload p.
func ProxyOwner(p []uint64) int { return int(uint32(p[proxyOwnerSlot])) }

// ProxySlot returns proxy payload p's index in its owner's registry, or -1.
func ProxySlot(p []uint64) int { return int(p[proxyOwnerSlot]>>32) - 1 }

// proxyPtrOffsets is the fixed pointer layout of proxy objects.
var proxyPtrOffsets = []int{ProxyGlobalSlot}

// PtrLayout returns the pointer-slot layout of an object with header h:
// offs lists the payload offsets holding pointers, unless all is true, in
// which case every payload word is a pointer (vector objects) and offs is
// nil. It is the single source of truth for which words of an object are
// pointers: SlotCursor (walk.go) is the resumable iterator over it and
// ScanObject the callback one.
func PtrLayout(t *Table, h uint64) (offs []int, all bool) {
	switch id := HeaderID(h); id {
	case IDRaw:
		return nil, false
	case IDVector:
		return nil, true
	case IDProxy:
		return proxyPtrOffsets, false
	default:
		return t.Lookup(id).PtrFields, false
	}
}

// ScanObject visits the pointer slots of the object at a, in PtrLayout order
// — the order SlotCursor steps through them in, so the callback-driven and
// cursor-driven walkers can never scan different slots. visit may return a
// replacement pointer, which is written back; this is exactly the shape a
// copying collector's forward function needs. It is every local collection's
// inner loop, so it ranges over the layout itself rather than through a
// cursor (16 against 29 ns per small object). Each slot is read and written
// back through the region, never through a payload slice held across visit:
// a Cheney scan's visit copies into the very chunk being scanned, and a bump
// that grows the window detaches such a slice (Space.Payload). A concurrent
// mark's visit may advance, and a mutator's store into the slot meanwhile
// went through the write barrier (gcWriteBarrier, gcDirtyRoot) and wins:
// the replacement is written only if the slot still holds what visit got.
func ScanObject(s *Space, t *Table, a Addr, visit func(slot int, ptr Addr) Addr) {
	h := s.Header(a)
	if !IsHeader(h) {
		panic(fmt.Sprintf("heap: ScanObject of forwarded object %v", a))
	}
	offs, all := PtrLayout(t, h)
	if !all && len(offs) == 0 {
		return // raw object: no pointers
	}
	r, w := s.RegionOf(a), a.Word()
	if all {
		for i := range HeaderLen(h) {
			p := Addr(r.At(w + i))
			if np := visit(i, p); np != p && Addr(r.At(w+i)) == p {
				r.Set(w+i, uint64(np))
			}
		}
		return
	}
	for _, i := range offs {
		p := Addr(r.At(w + i))
		if np := visit(i, p); np != p && Addr(r.At(w+i)) == p {
			r.Set(w+i, uint64(np))
		}
	}
}
