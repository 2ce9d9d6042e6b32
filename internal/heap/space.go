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
// Storage is committed in windows that grow as the region fills, so a region
// holds host memory for what it holds, not for its size. Words is the window
// at Base: it holds region words [Base, Base+len(Words)), so word w >= Base
// lives at Words[w-Base]. A chunk has only this window, based at 0. A local
// heap has two (see LocalHeap): Words is its nursery window, based at
// NurseryStart, and Old holds region words [0, len(Old)) for the old area
// and the reserve below it; every word below Base lives at Old[w]. Each
// accessor picks the window by w < Base. Simulated addresses, page homes and
// zero-initialisation do not depend on how much is committed. An access to
// an uncommitted word is an index panic. Growing a window can replace its
// backing array, which is why an alias into a region does not outlive a bump
// or a collection's copy into it (see Space.Payload).
type Region struct {
	ID       int
	Kind     RegionKind
	Owner    int // owning vproc for RegionLocal, allocating vproc for chunks
	Size     int
	Base     int
	Words    []uint64
	Old      []uint64
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

// window returns the committed array that holds region word w and w's index
// in it: the old-area window below Base, the window at Base from there up.
func (r *Region) window(w int) ([]uint64, int) {
	if w < r.Base {
		return r.Old, w
	}
	return r.Words, w - r.Base
}

// At returns region word w, which must be committed.
func (r *Region) At(w int) uint64 {
	words, i := r.window(w)
	return words[i]
}

// Set writes region word w, which must be committed.
func (r *Region) Set(w int, v uint64) {
	words, i := r.window(w)
	words[i] = v
}

// Span returns region words [lo, hi) as a slice aliasing the window that
// holds them, with Payload's caveats. They must lie in one window and be
// committed.
func (r *Region) Span(lo, hi int) []uint64 {
	words, i := r.window(lo)
	return words[i : i+hi-lo]
}

// A window grows in steps, each a fixed fraction of the region's size, and
// past the last step the region is committed whole. Both region kinds take
// the same steps: 1/128 of the region, then 1/32, then 1/8. A local heap's
// two windows each hold only part of the region (the nursery at most half of
// it), and idle heaps keep the first step. A short run leaves most vprocs
// their first chunk holding a few hundred words of its 16 K, and the 1/8
// step keeps one that outgrows 1/32 from committing the rest. A window that
// grows through every step to the whole region has allocated 1/128 + 1/32 +
// 1/8 = 16.4 % more than the region's size on the way; doubling from a
// small window would allocate it twice over, and a single small step leaves
// most short runs committing everything. A chunk that replaces its vproc's
// full one fills in turn, so the runtime commits it whole when it fetches
// it (Chunk.CommitWhole), which allocates nothing beyond its size.
var windowSteps = [...]int{128, 32, 8}

// reserve grows the window at Base so that it covers region words up to end,
// the word after the object a bump is about to write. An end beyond the
// region commits it whole and leaves the bump to fail on its index. Both
// region kinds bump through here.
func (r *Region) reserve(end int) {
	if n, ok := r.step(end - r.Base); ok {
		r.Words = r.lengthen(r.Words, min(n, r.Size-r.Base))
	} else {
		r.commitWhole()
	}
}

// OldWindow returns a local heap's old-area window grown to cover region
// words [0, end), end <= Base: a minor collection's copies into the reserve
// call it before they write.
func (r *Region) OldWindow(end int) []uint64 {
	if end > len(r.Old) {
		if n, ok := r.step(end); ok {
			r.Old = r.lengthen(r.Old, n)
		} else {
			r.commitWhole()
		}
	}
	return r.Old
}

// step returns the first window step that holds need words, or false past
// the last one.
func (r *Region) step(need int) (int, bool) {
	for _, f := range windowSteps {
		if n := r.Size / f; need <= n {
			return n, true
		}
	}
	return 0, false
}

// lengthen returns window ws lengthened to n words, keeping its contents. It
// reslices ws when its capacity allows: a nursery window keeps its array
// across nursery moves, and the words it uncovers are handed out by Bump,
// which zeroes them. Otherwise it copies ws to a new array and abandons it.
func (r *Region) lengthen(ws []uint64, n int) []uint64 {
	if n <= cap(ws) {
		return ws[:n]
	}
	words := make([]uint64, n)
	copy(words, ws)
	r.abandon(ws)
	return words
}

// whole reports whether the region is committed whole: one array of Size
// words, Old its view from word 0 and Words its view from Base, so that
// every word has one home whichever window reaches it.
func (r *Region) whole() bool { return cap(r.Old) == r.Size }

// commitWhole commits the region whole, carrying over both windows'
// contents, and abandons their arrays. A no-op on a region already whole.
func (r *Region) commitWhole() {
	if r.whole() {
		return
	}
	words := make([]uint64, r.Size)
	copy(words, r.Old)
	copy(words[r.Base:], r.Words)
	r.abandon(r.Old)
	r.abandon(r.Words)
	r.Old, r.Words = words[:r.Base], words[r.Base:]
}

// rebase moves the window at Base to base, keeping its array: the region's
// views when it is whole, else as much of the window as fits below the
// region's end. The words it covers must hold nothing live.
func (r *Region) rebase(base int) {
	r.Base = base
	if r.whole() {
		r.Old, r.Words = r.Old[:base], r.Old[base:r.Size]
	} else {
		r.Words = r.Words[:min(cap(r.Words), r.Size-base)]
	}
}

// abandon drops a window's array. Under Space.Debug it is poisoned and kept
// for CheckDetached.
func (r *Region) abandon(ws []uint64) {
	if s := r.space; s.Debug && cap(ws) != 0 {
		old := ws[:cap(ws)]
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

// Committed returns the words of backing store the region holds: the
// capacity of its windows' arrays.
func (r *Region) Committed() int {
	if r.whole() {
		return r.Size
	}
	return cap(r.Old) + cap(r.Words)
}

// CommittedWords returns the words of backing store the space's regions of
// the given kind hold committed.
func (s *Space) CommittedWords(kind RegionKind) int {
	n := 0
	for _, r := range s.regions {
		if r.Kind == kind {
			n += r.Committed()
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
// RegionOf. Its loop is the heap's one forwarding chase: Resolve uses it.
func (s *Space) Locate(a Addr) (Addr, []uint64, int) {
	for {
		r := s.RegionOf(a)
		words, i := r.window(a.Word() - 1)
		h := words[i]
		if !IsHeader(h) {
			a = ForwardTarget(h)
			continue
		}
		node := r.HomeNode
		if node < 0 {
			node = s.Pages.NodeOfWord(r.BasePage, a.Word())
		}
		return a, words[i+1 : i+1+HeaderLen(h)], node
	}
}

// Resolve is Locate's address alone: the object's current address, or the
// nil address for nil. Chargeless: the mutator's and the host-side resolves
// both come here.
func (s *Space) Resolve(a Addr) Addr {
	if a != 0 {
		a, _, _ = s.Locate(a)
	}
	return a
}

// Payload returns the object's payload words as a slice aliasing the region
// storage. A slice or pointer into any region is invalid after any bump into
// that region: a bump may grow the window (see Region) and replace the backing
// array, leaving the alias detached — still readable, but no longer the
// heap's storage, so a write through it is lost. That includes a bump made by
// a ScanObject visit callback, and one made by another vproc (a chunk's owner)
// while the holder advances. A local heap's minor collection can grow its
// old-area window, and every collection moves its nursery window to other
// addresses. Re-derive the slice after anything that can bump; under
// Space.Debug a detached slice reads poisonWord and a write through it fails
// CheckDetached.
func (s *Space) Payload(a Addr) []uint64 {
	words, i := s.RegionOf(a).window(a.Word() - 1)
	h := words[i]
	if !IsHeader(h) {
		panic(fmt.Sprintf("heap: Payload of forwarded object %v", a))
	}
	return words[i+1 : i+1+HeaderLen(h)]
}
