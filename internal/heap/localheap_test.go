package heap

import (
	"testing"

	"repro/internal/mempage"
)

// FreeNurseryWords returns the unallocated nursery words.
func (h *LocalHeap) FreeNurseryWords() int {
	if h.Alloc > h.realLimit {
		return 0
	}
	return h.realLimit - h.Alloc
}

// InNursery reports whether the address lies in the nursery.
func (h *LocalHeap) InNursery(a Addr) bool {
	return a.RegionID() == h.Region.ID && a.Word() >= h.NurseryStart
}

// InOld reports whether the address lies in the old-data area (old or
// young partition).
func (h *LocalHeap) InOld(a Addr) bool {
	return a.RegionID() == h.Region.ID && a.Word() < h.OldTop
}

func newTestHeap(t *testing.T, words int) *LocalHeap {
	t.Helper()
	pages := mempage.NewTable(mempage.PolicyLocal, 2)
	s := NewSpace(pages)
	r := s.NewRegion(RegionLocal, 0, words, 0)
	return NewLocalHeap(r)
}

func TestLocalHeapInitialSplit(t *testing.T) {
	h := newTestHeap(t, 4096)
	if err := h.CheckLayout(); err != nil {
		t.Fatal(err)
	}
	// Empty heap: nursery should be (roughly) the upper half.
	if h.OldTop != 1 || h.YoungStart != 1 {
		t.Fatalf("fresh heap OldTop=%d YoungStart=%d, want 1,1", h.OldTop, h.YoungStart)
	}
	if n := h.NurseryWords(); n < 2040 || n > 2048 {
		t.Fatalf("nursery = %d words, want about half of 4096", n)
	}
}

func TestLocalHeapReserveAbsorbsFullNursery(t *testing.T) {
	// The reserve below the nursery must be able to hold a 100%-live
	// nursery (the minor-GC worst case), for any heap size and OldTop.
	for size := 64; size <= 1024; size += 7 {
		pages := mempage.NewTable(mempage.PolicyLocal, 1)
		s := NewSpace(pages)
		r := s.NewRegion(RegionLocal, 0, size, 0)
		h := NewLocalHeap(r)
		for oldTop := 1; oldTop < size-4; oldTop += 3 {
			h.OldTop = oldTop
			h.YoungStart = oldTop
			h.ResetNursery()
			reserve := h.NurseryStart - h.OldTop
			nursery := h.NurseryWords()
			if reserve < nursery {
				t.Fatalf("size=%d oldTop=%d: reserve %d < nursery %d", size, oldTop, reserve, nursery)
			}
		}
	}
}

func TestBumpAllocation(t *testing.T) {
	h := newTestHeap(t, 4096)
	a := h.Bump(MakeHeader(IDRaw, 3))
	if a.Word() != h.NurseryStart+1 {
		t.Fatalf("first object at word %d, want %d", a.Word(), h.NurseryStart+1)
	}
	b, p := h.BumpPayload(MakeHeader(IDRaw, 2))
	if b.Word() != a.Word()+4 {
		t.Fatalf("second object at %d, want %d", b.Word(), a.Word()+4)
	}
	// The payload BumpPayload returns is the object's, zeroed.
	if len(p) != 2 || p[0] != 0 || p[1] != 0 {
		t.Fatalf("payload %v, want two zero words", p)
	}
	p[1] = 7
	if w := h.Region.At(b.Word() + 1); w != 7 {
		t.Fatalf("a write through the payload reads back %d from the object", w)
	}
	if !h.InNursery(a) || !h.InNursery(b) {
		t.Fatal("allocated objects should be in the nursery")
	}
	if h.InOld(a) {
		t.Fatal("nursery object reported in old area")
	}
}

func TestZeroLimitSignal(t *testing.T) {
	h := newTestHeap(t, 4096)
	if h.LimitZeroed() {
		t.Fatal("fresh heap should not be signalled")
	}
	h.ZeroLimit()
	if !h.LimitZeroed() {
		t.Fatal("ZeroLimit did not take")
	}
	if h.CanAlloc(1) {
		t.Fatal("allocation must fail while the limit is zeroed")
	}
	h.RestoreLimit()
	if h.LimitZeroed() || !h.CanAlloc(1) {
		t.Fatal("RestoreLimit did not restore")
	}
}

func TestCanAllocBoundary(t *testing.T) {
	h := newTestHeap(t, 4096)
	free := h.FreeNurseryWords()
	if !h.CanAlloc(free - 1) {
		t.Fatalf("object of %d payload words (plus header) should fit in %d free", free-1, free)
	}
	if h.CanAlloc(free) {
		t.Fatalf("object of %d payload words (plus header) must not fit in %d free", free, free)
	}
	// A zeroed limit is the safepoint trap: nothing fits until it is restored.
	if h.ZeroLimit(); h.CanAlloc(0) {
		t.Fatal("CanAlloc under a zeroed limit")
	}
	if h.RestoreLimit(); !h.CanAlloc(free - 1) {
		t.Fatal("CanAlloc false again after RestoreLimit")
	}
}
