package heap

import (
	"testing"

	"repro/internal/mempage"
)

func newTestSpace() *Space {
	return NewSpace(mempage.NewTable(mempage.PolicyLocal, 2))
}

func TestDescriptorRegisterAndScan(t *testing.T) {
	tab := NewTable()
	id := tab.Register("pair", 4, []int{1, 3})
	if id != IDFirstMixed {
		t.Fatalf("first descriptor ID = %d, want %d", id, IDFirstMixed)
	}
	d := tab.Lookup(id)
	if d.Name != "pair" || d.SizeWords != 4 {
		t.Fatalf("descriptor mangled: %+v", d)
	}

	s := newTestSpace()
	r := s.NewRegion(RegionLocal, 0, 256, 0)
	lh := NewLocalHeap(r)
	obj := lh.Bump(MakeHeader(id, 4))
	p := s.Payload(obj)
	p[0] = 0xDEAD // raw
	p[1] = uint64(MakeAddr(r.ID, 5))
	p[2] = 0xBEEF // raw
	p[3] = uint64(MakeAddr(r.ID, 9))

	var visited []int
	ScanObject(s, tab, obj, func(slot int, ptr Addr) Addr {
		visited = append(visited, slot)
		return ptr
	})
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 3 {
		t.Errorf("scan visited slots %v, want [1 3]", visited)
	}
	// Raw fields untouched.
	if p[0] != 0xDEAD || p[2] != 0xBEEF {
		t.Error("scan modified raw fields")
	}
}

func TestDescriptorScanRewrites(t *testing.T) {
	tab := NewTable()
	id := tab.Register("one-ptr", 1, []int{0})
	s := newTestSpace()
	r := s.NewRegion(RegionLocal, 0, 128, 0)
	lh := NewLocalHeap(r)
	obj := lh.Bump(MakeHeader(id, 1))
	old := MakeAddr(r.ID, 3)
	nu := MakeAddr(r.ID, 7)
	s.Payload(obj)[0] = uint64(old)
	ScanObject(s, tab, obj, func(_ int, ptr Addr) Addr {
		if ptr == old {
			return nu
		}
		return ptr
	})
	if Addr(s.Payload(obj)[0]) != nu {
		t.Error("scan did not write back the forwarded pointer")
	}
}

// TestScanObjectKeepsVisitStore: a store into the slot being visited, made
// while visit runs — a mutator's, while a concurrent mark's visit advances —
// survives the scan; the slots nothing stored into take visit's replacement.
func TestScanObjectKeepsVisitStore(t *testing.T) {
	tab := NewTable()
	pair := tab.Register("pair", 3, []int{0, 2})
	s := newTestSpace()
	r := s.NewRegion(RegionLocal, 0, 128, 0)
	lh := NewLocalHeap(r)
	old, nu, stored := MakeAddr(r.ID, 3), MakeAddr(r.ID, 7), MakeAddr(r.ID, 11)
	for name, obj := range map[string]Addr{"vector": lh.Bump(MakeHeader(IDVector, 3)), "pair": lh.Bump(MakeHeader(pair, 3))} {
		p := s.Payload(obj)
		p[0], p[2] = uint64(old), uint64(old)
		ScanObject(s, tab, obj, func(slot int, _ Addr) Addr {
			if slot == 0 {
				s.Payload(obj)[slot] = uint64(stored)
			}
			return nu
		})
		if got := s.Payload(obj); Addr(got[0]) != stored || Addr(got[2]) != nu {
			t.Errorf("%s: slots 0 and 2 hold %v and %v after the scan, want the store %v and the replacement %v",
				name, Addr(got[0]), Addr(got[2]), stored, nu)
		}
	}
}

func TestVectorScanVisitsEverySlot(t *testing.T) {
	tab := NewTable()
	s := newTestSpace()
	r := s.NewRegion(RegionLocal, 0, 128, 0)
	lh := NewLocalHeap(r)
	obj := lh.Bump(MakeHeader(IDVector, 5))
	var n int
	ScanObject(s, tab, obj, func(slot int, ptr Addr) Addr {
		if slot != n {
			t.Errorf("slot order: got %d want %d", slot, n)
		}
		n++
		return ptr
	})
	if n != 5 {
		t.Errorf("vector scan visited %d slots, want 5", n)
	}
}

func TestRawScanVisitsNothing(t *testing.T) {
	tab := NewTable()
	s := newTestSpace()
	r := s.NewRegion(RegionLocal, 0, 128, 0)
	lh := NewLocalHeap(r)
	obj := lh.Bump(MakeHeader(IDRaw, 6))
	ScanObject(s, tab, obj, func(slot int, ptr Addr) Addr {
		t.Errorf("raw object scanned slot %d", slot)
		return ptr
	})
}

func TestProxyScanVisitsOnlyGlobalSlot(t *testing.T) {
	tab := NewTable()
	s := newTestSpace()
	r := s.NewRegion(RegionChunk, 0, 128, 0)
	c := &Chunk{Region: r, Top: 1, Scan: 1}
	obj := c.Bump(MakeHeader(IDProxy, ProxySizeWords))
	p := s.Payload(obj)
	SetProxyOwner(p, 3, -1)
	p[ProxyLocalSlot] = uint64(MakeAddr(0, 9)) // local ref: must not be traced
	p[ProxyGlobalSlot] = 0
	var slots []int
	ScanObject(s, tab, obj, func(slot int, ptr Addr) Addr {
		slots = append(slots, slot)
		return ptr
	})
	if len(slots) != 1 || slots[0] != ProxyGlobalSlot {
		t.Errorf("proxy scan visited %v, want only slot %d", slots, ProxyGlobalSlot)
	}
}

// TestProxyOwnerWord: the registry slot shares the owner word without
// disturbing the owner's ID, at the largest machine's widest ID.
func TestProxyOwnerWord(t *testing.T) {
	p := make([]uint64, ProxySizeWords)
	for _, i := range []int{-1, 0, 1, 1 << 20, -1} {
		SetProxyOwner(p, 4095, i)
		if ProxyOwner(p) != 4095 || ProxySlot(p) != i {
			t.Errorf("SetProxyOwner(4095, %d): owner %d slot %d", i, ProxyOwner(p), ProxySlot(p))
		}
	}
}

func TestDescriptorValidation(t *testing.T) {
	tab := NewTable()
	for _, c := range []struct {
		name string
		size int
		ptrs []int
	}{
		{"neg size", -1, nil},
		{"field out of range", 2, []int{2}},
		{"negative field", 2, []int{-1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tab.Register(c.name, c.size, c.ptrs)
		})
	}
}

func TestLookupUnknownIDPanics(t *testing.T) {
	tab := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown descriptor")
		}
	}()
	tab.Lookup(IDFirstMixed)
}
