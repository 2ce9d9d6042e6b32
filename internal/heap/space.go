package heap

import (
	"fmt"

	"repro/internal/mempage"
)

// Addr is a simulated heap address: it points at the first payload word of
// an object; the header word sits immediately below it. Addr 0 is nil.
//
// Encoding: bits 63..36 hold regionID+1, bits 35..0 hold the word index
// within the region. The +1 keeps address 0 invalid.
type Addr uint64

const (
	addrRegionShift = 36
	addrWordMask    = (1 << addrRegionShift) - 1

	// MaxRegionWords is the largest region the word-index field of an Addr
	// can address; a larger region would alias addresses silently.
	MaxRegionWords = 1 << addrRegionShift
)

// MakeAddr builds an address from a region ID and word index.
func MakeAddr(region int, word int) Addr {
	return Addr(uint64(region+1)<<addrRegionShift | uint64(word))
}

// RegionID extracts the region ID.
func (a Addr) RegionID() int { return int(uint64(a)>>addrRegionShift) - 1 }

// Word extracts the word index within the region.
func (a Addr) Word() int { return int(uint64(a) & addrWordMask) }

// String formats the address for diagnostics.
func (a Addr) String() string {
	if a == 0 {
		return "nil"
	}
	return fmt.Sprintf("r%d+%d", a.RegionID(), a.Word())
}

// RegionKind classifies heap regions.
type RegionKind int

const (
	// RegionLocal backs one vproc's local heap.
	RegionLocal RegionKind = iota
	// RegionChunk backs one global-heap chunk.
	RegionChunk
)

// Region is a contiguous run of Size heap words backed by simulated physical
// pages. Word 0 of every region is kept unused so that no object payload
// starts at index 0 and every object's header index is valid.
//
// Words is the committed window of the region: it holds region words
// [Base, Base+len(Words)), so word w lives at Words[w-Base]. A chunk region
// is committed whole on creation (Base 0, len(Words) == Size) and stays
// that way. A local-heap region starts with an empty window that its
// LocalHeap grows as the bump pointer advances and CommitAll flattens to the
// same Base-0 layout; simulated addresses, page homes and zero-initialisation
// do not depend on how much is committed. An access to an uncommitted word
// is an index panic.
type Region struct {
	ID       int
	Kind     RegionKind
	Owner    int // owning vproc for RegionLocal, allocating vproc for chunks
	Size     int
	Base     int
	Words    []uint64
	BasePage int
	space    *Space // for Space.Debug

	// HomeNode caches the common NUMA node of every backing page, or -1
	// when the pages span nodes (possible only under interleaved
	// placement). Page homes are fixed at region creation, so NodeOf can
	// skip the page-table lookup for homogeneous regions.
	HomeNode int
}

// Space is the registry of all heap regions plus the simulated page table.
type Space struct {
	Pages *mempage.Table
	// Debug poisons the backing array a local-heap window abandons when
	// it grows, so a slice still aliasing it reads poisonWord instead of
	// equal-looking stale data; set by the runtime's Debug mode.
	Debug   bool
	regions []*Region
}

// poisonWord fills abandoned backing arrays under Space.Debug. Its low bit
// is clear, so it is not a header, and read as a pointer or a forwarding
// word it names a region that does not exist: the heap verifier rejects it
// and a checksum over it cannot match.
const poisonWord = 0xDEADBEEFDEADBEEE

// NewSpace creates an empty heap address space over the given page table.
func NewSpace(pages *mempage.Table) *Space {
	return &Space{Pages: pages}
}

// NewRegion allocates a region of the given size in words, with backing
// pages placed by the page-table policy on behalf of reqNode. A chunk region
// is committed whole; a local region commits nothing until its LocalHeap
// allocates.
func (s *Space) NewRegion(kind RegionKind, owner, words, reqNode int) *Region {
	if words <= 1 {
		panic("heap: region too small")
	}
	if words > MaxRegionWords {
		panic(fmt.Sprintf("heap: region of %d words exceeds the %d an address can index", words, MaxRegionWords))
	}
	r := &Region{
		ID:       len(s.regions),
		Kind:     kind,
		Owner:    owner,
		Size:     words,
		BasePage: s.Pages.Alloc(mempage.PagesFor(words), reqNode),
		space:    s,
	}
	if kind == RegionChunk {
		r.Words = make([]uint64, words)
	}
	r.HomeNode = s.Pages.HomeOfRange(r.BasePage, mempage.PagesFor(words))
	s.regions = append(s.regions, r)
	return r
}

// Region returns the region with the given ID.
func (s *Space) Region(id int) *Region { return s.regions[id] }

// NumRegions returns the number of regions ever created.
func (s *Space) NumRegions() int { return len(s.regions) }

// RegionOf returns the region containing the address.
func (s *Space) RegionOf(a Addr) *Region {
	id := a.RegionID()
	if id < 0 || id >= len(s.regions) {
		panic(fmt.Sprintf("heap: address %v in unknown region", a))
	}
	return s.regions[id]
}

// NodeOf returns the home NUMA node of the page backing the address.
func (s *Space) NodeOf(a Addr) int {
	r := s.RegionOf(a)
	if r.HomeNode >= 0 {
		return r.HomeNode
	}
	return s.Pages.NodeOfWord(r.BasePage, a.Word())
}

// At returns region word w, which must be committed.
func (r *Region) At(w int) uint64 { return r.Words[w-r.Base] }

// Set writes region word w, which must be committed.
func (r *Region) Set(w int, v uint64) { r.Words[w-r.Base] = v }

// CommitAll commits the whole region: afterwards Base is 0 and Words has
// Size entries, the layout every collector's `words := region.Words` fast
// path indexes directly. The window's contents are kept and everything
// outside it reads zero, as it would have had it been committed from the
// start. A no-op on a region that is already whole.
func (r *Region) CommitAll() {
	if len(r.Words) == r.Size {
		return
	}
	r.rewindow(0, r.Size)
}

// rewindow replaces the window by a zeroed one over region words
// [base, base+n) that carries over the old window's contents, which must lie
// inside the new one. The abandoned array is poisoned under Space.Debug.
func (r *Region) rewindow(base, n int) {
	old := r.Words
	words := make([]uint64, n)
	copy(words[r.Base-base:], old)
	r.Base, r.Words = base, words
	if r.space.Debug {
		for i := range old {
			old[i] = poisonWord
		}
	}
}

// CommittedWords returns the words of backing store the space's regions of
// the given kind hold committed (the sum of their windows).
func (s *Space) CommittedWords(kind RegionKind) int {
	n := 0
	for _, r := range s.regions {
		if r.Kind == kind {
			n += len(r.Words)
		}
	}
	return n
}

// Header returns the header (or forwarding) word of the object at a.
func (s *Space) Header(a Addr) uint64 {
	return s.RegionOf(a).At(a.Word() - 1)
}

// SetHeader overwrites the header word of the object at a (used to install
// forwarding pointers).
func (s *Space) SetHeader(a Addr, w uint64) {
	s.RegionOf(a).Set(a.Word()-1, w)
}

// ObjectLen returns the payload length in words of the object at a,
// following a forwarding pointer if present. Forwarding is one-hop by
// construction — a collector only forwards to a freshly copied object, whose
// header word is a real header — so a chain is heap corruption, not a case
// to recurse through.
func (s *Space) ObjectLen(a Addr) int {
	h := s.Header(a)
	if !IsHeader(h) {
		h = s.Header(ForwardTarget(h))
		if !IsHeader(h) {
			panic(fmt.Sprintf("heap: forwarding chain at %v (target %v is itself forwarded)", a, ForwardTarget(s.Header(a))))
		}
	}
	return HeaderLen(h)
}

// Payload returns the object's payload words as a slice aliasing the region
// storage. For an object in a local heap the alias holds only until that
// heap's next allocation or collection: either may replace the region's
// backing array (see Region), leaving the slice detached — still readable,
// but no longer the heap's storage, and poisoned under Space.Debug.
func (s *Space) Payload(a Addr) []uint64 {
	r := s.RegionOf(a)
	w := a.Word() - r.Base
	h := r.Words[w-1]
	if !IsHeader(h) {
		panic(fmt.Sprintf("heap: Payload of forwarded object %v", a))
	}
	return r.Words[w : w+HeaderLen(h)]
}
