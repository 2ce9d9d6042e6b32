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
// [Base, Base+len(Words)), so word w lives at Words[w-Base]. Every region
// starts with an empty window that grows as its bump pointer advances
// (reserve), in the same steps for both kinds. A chunk's window is always
// based at 0; a local heap's sits at its nursery until CommitAll flattens it
// to the same Base-0 layout. Simulated addresses, page homes and
// zero-initialisation do not depend on how much is committed. An access to
// an uncommitted word is an index panic. Growing the window replaces the
// backing array, which is why an alias into a region does not outlive a bump
// into it (see Space.Payload).
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
	// Debug poisons the backing array a window abandons when it grows, so a
	// slice still aliasing it reads poisonWord instead of equal-looking
	// stale data, and keeps it, so CheckDetached can report a write through
	// such a slice; set by the runtime's Debug mode.
	Debug     bool
	regions   []*Region
	abandoned []abandonedArray
}

// abandonedArray is a backing array a window left behind under Space.Debug.
type abandonedArray struct {
	region int
	words  []uint64
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
// pages placed by the page-table policy on behalf of reqNode. It commits no
// storage: the window grows as its LocalHeap or Chunk allocates.
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

// The window of a region grows to Size/windowStep1 words, then to
// Size/windowStep2, then to the whole region. A region that ends up whole has
// allocated 1/64 + 1/16 = 7.8 % more than its size on the way; doubling from a
// small window would allocate it twice over, and a single small step leaves
// most short runs committing everything.
const (
	windowStep1 = 64
	windowStep2 = 16
)

// reserve grows the window so that it covers region words up to end, the word
// after the object a bump is about to write: to the first step that holds it
// measured from Base, or else to the whole region. An end beyond the region
// commits everything and leaves the bump to fail on its index. Both region
// kinds grow through here.
func (r *Region) reserve(end int) {
	for _, step := range [...]int{windowStep1, windowStep2} {
		if n := r.Size / step; end-r.Base <= n && r.Base+n <= r.Size {
			r.rewindow(r.Base, n)
			return
		}
	}
	r.CommitAll()
}

// rewindow replaces the window by a zeroed one over region words
// [base, base+n) that carries over the old window's contents, which must lie
// inside the new one. Under Space.Debug the abandoned array is poisoned and
// kept for CheckDetached.
func (r *Region) rewindow(base, n int) {
	old := r.Words
	words := make([]uint64, n)
	copy(words[r.Base-base:], old)
	r.Base, r.Words = base, words
	if s := r.space; s.Debug && len(old) != 0 {
		for i := range old {
			old[i] = poisonWord
		}
		s.abandoned = append(s.abandoned, abandonedArray{region: r.ID, words: old})
	}
}

// CheckDetached reports a write through a detached alias: an array a window
// abandoned under Space.Debug that no longer holds only poisonWord. Such a
// write reached no heap storage, so it was lost. Nil without Debug.
func (s *Space) CheckDetached() error {
	for _, a := range s.abandoned {
		for i, w := range a.words {
			if w != poisonWord {
				return fmt.Errorf("heap: word %d of an array region r%d abandoned holds %#x: a write through a detached alias was lost",
					i, a.region, w)
			}
		}
	}
	return nil
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

// Locate follows a's forwarding pointers, as many as there are, to the
// object's current address and returns that address, its payload (a slice
// with Payload's caveats) and the home NUMA node of the page its first
// payload word sits on (NodeOf). It takes one RegionOf and one header load
// per hop — the whole of a block read's lookups, which Header, ObjectLen,
// NodeOf and Payload would repeat. An address in no region panics as in
// RegionOf.
func (s *Space) Locate(a Addr) (Addr, []uint64, int) {
	for {
		r := s.RegionOf(a)
		w := a.Word() - r.Base
		h := r.Words[w-1]
		if !IsHeader(h) {
			a = ForwardTarget(h)
			continue
		}
		node := r.HomeNode
		if node < 0 {
			node = s.Pages.NodeOfWord(r.BasePage, a.Word())
		}
		return a, r.Words[w : w+HeaderLen(h)], node
	}
}

// Payload returns the object's payload words as a slice aliasing the region
// storage. A slice or pointer into any region is invalid after any bump into
// that region: a bump may grow the window (see Region) and replace the backing
// array, leaving the alias detached — still readable, but no longer the
// heap's storage, so a write through it is lost. That includes a bump made by
// a ScanObject visit callback, and one made by another vproc (a chunk's owner)
// while the holder advances. A local heap's collections replace the array
// too. Re-derive the slice after anything that can bump; under Space.Debug a
// detached slice reads poisonWord and a write through it fails CheckDetached.
func (s *Space) Payload(a Addr) []uint64 {
	r := s.RegionOf(a)
	w := a.Word() - r.Base
	h := r.Words[w-1]
	if !IsHeader(h) {
		panic(fmt.Sprintf("heap: Payload of forwarded object %v", a))
	}
	return r.Words[w : w+HeaderLen(h)]
}
