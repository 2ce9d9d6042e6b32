package heap

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mempage"
)

// TestLocateMatchesSeparateLookups: Locate returns what the separate
// lookups a block read used to make return — the resolved address, its
// payload and the home node of its first payload word — for a live object,
// one forwarded once (local heap to chunk) and one forwarded twice (local
// heap to a chunk to another chunk, a promotion whose copy a global
// collection evacuated), under a policy whose regions have one home node
// and one whose regions span nodes; and it panics on an address in no
// region as RegionOf does.
func TestLocateMatchesSeparateLookups(t *testing.T) {
	for _, pol := range []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved} {
		s := NewSpace(mempage.NewTable(pol, 4))
		h := NewLocalHeap(s.NewRegion(RegionLocal, 0, 1<<16, 0))
		from := &Chunk{Region: s.NewRegion(RegionChunk, 1, 1<<16, 1), Top: 1}
		to := &Chunk{Region: s.NewRegion(RegionChunk, 1, 1<<16, 2), Top: 1}
		to.Bump(MakeHeader(IDRaw, 40000)) // the survivor lands on a later page

		live := h.Bump(MakeHeader(IDRaw, 3))
		once, twice := h.Bump(MakeHeader(IDRaw, 2)), h.Bump(MakeHeader(IDRaw, 5))
		promoted := from.Bump(MakeHeader(IDRaw, 2))
		s.SetHeader(once, MakeForward(promoted))
		copied, evacuated := from.Bump(MakeHeader(IDRaw, 5)), to.Bump(MakeHeader(IDRaw, 5))
		s.SetHeader(twice, MakeForward(copied))
		s.SetHeader(copied, MakeForward(evacuated))
		for i := range s.Payload(evacuated) {
			s.Payload(evacuated)[i] = uint64(100 + i)
		}

		for _, tc := range []struct {
			name     string
			a, final Addr
		}{{"live", live, live}, {"forwarded once", once, promoted}, {"forwarded twice", twice, evacuated}} {
			got, p, node := s.Locate(tc.a)
			if got != tc.final || !slices.Equal(p, s.Payload(tc.final)) || len(p) != s.ObjectLen(tc.final) || node != s.NodeOf(tc.final) {
				t.Errorf("%s, %s: Locate = %v, %v, node %d; want %v, %v, node %d",
					pol, tc.name, got, p, node, tc.final, s.Payload(tc.final), s.NodeOf(tc.final))
			}
			if len(p) > 0 && &p[0] != &s.Payload(tc.final)[0] {
				t.Errorf("%s, %s: the payload does not alias the region", pol, tc.name)
			}
			if got := s.Resolve(tc.a); got != tc.final {
				t.Errorf("%s, %s: Resolve = %v, want %v", pol, tc.name, got, tc.final)
			}
		}
		if got := s.Resolve(0); got != 0 {
			t.Errorf("%s: Resolve(0) = %v, want the nil address", pol, got)
		}
		if pol == mempage.PolicyInterleaved && to.Region.HomeNode >= 0 {
			t.Errorf("an interleaved %d-word region has home node %d; the test needs one that spans nodes", to.Region.Size, to.Region.HomeNode)
		}

		v := func() (v any) {
			defer func() { v = recover() }()
			s.Locate(MakeAddr(7, 1))
			return nil
		}()
		if msg, _ := v.(string); !strings.Contains(msg, "unknown region") {
			t.Errorf("%s: Locate of an address in no region panicked with %v, want RegionOf's unknown-region panic", pol, v)
		}
	}
}
