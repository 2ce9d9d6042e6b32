package heap

import (
	"math/rand"
	"testing"

	"repro/internal/mempage"
)

// FreeCount returns the number of free chunks per node.
func (m *ChunkManager) FreeCount() []int {
	out := make([]int, len(m.freeByNode))
	for i, fl := range m.freeByNode {
		out[i] = len(fl)
	}
	return out
}

// FreeWords returns the unallocated words.
func (c *Chunk) FreeWords() int { return len(c.Region.Words) - c.Top }

func newTestManager(policy mempage.Policy, nodes int) *ChunkManager {
	s := NewSpace(mempage.NewTable(policy, nodes))
	return NewChunkManager(s, 256, nodes)
}

func TestChunkGetFreshIsGlobalSync(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 4)
	c, sync := m.Get(2, 7)
	if sync != SyncGlobal {
		t.Errorf("fresh chunk sync = %v, want SyncGlobal", sync)
	}
	if c.Node != 2 {
		t.Errorf("fresh chunk node = %d, want 2 (local policy)", c.Node)
	}
	if c.Owner != 7 {
		t.Errorf("owner = %d, want 7", c.Owner)
	}
	if m.Created != 1 || m.Reused != 0 {
		t.Errorf("counters: created=%d reused=%d", m.Created, m.Reused)
	}
}

func TestChunkNodeAffineReuse(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 4)
	c, _ := m.Get(1, 0)
	m.TakeActive()
	m.Release(c)

	// Same node: reuse, node-local sync.
	r, sync := m.Get(1, 5)
	if r != c || sync != SyncNodeLocal {
		t.Errorf("same-node Get: reused=%v sync=%v", r == c, sync)
	}
	m.TakeActive()
	m.Release(r)

	// Different node with affinity on: a fresh chunk, not node 1's.
	o, sync2 := m.Get(3, 5)
	if o == c || sync2 != SyncGlobal {
		t.Error("node-affine manager reused a remote chunk")
	}
}

func TestChunkAffinityAblation(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 4)
	m.NodeAffine = false
	c, _ := m.Get(1, 0)
	m.TakeActive()
	m.Release(c)
	// Affinity off: any free chunk is fair game.
	o, sync := m.Get(3, 5)
	if o != c || sync != SyncNodeLocal {
		t.Error("non-affine manager should reuse the remote free chunk")
	}
}

func TestChunkTriggerAccounting(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 2)
	if m.AllocatedWords != 0 {
		t.Fatal("fresh manager should have zero allocation")
	}
	m.Get(0, 0)
	m.Get(1, 1)
	if m.AllocatedWords != 2*m.ChunkWords {
		t.Errorf("AllocatedWords = %d, want %d", m.AllocatedWords, 2*m.ChunkWords)
	}
	from := m.TakeActive()
	if len(from) != 2 || m.AllocatedWords != 0 {
		t.Errorf("TakeActive: %d chunks, %d words left", len(from), m.AllocatedWords)
	}
	// Releasing from-space chunks must not go below zero.
	for _, c := range from {
		m.Release(c)
	}
	if m.AllocatedWords != 0 {
		t.Errorf("Release changed trigger accounting: %d", m.AllocatedWords)
	}
}

func TestChunkResetClearsContents(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 2)
	m.Debug = true // reset asserts the words it does not clear are zero
	rng := rand.New(rand.NewSource(1))
	c, _ := m.Get(0, 0)
	// Reuse the chunk at fill levels from one object to full: reset clears
	// only the words below the bump pointer, so each round checks that
	// nothing of the previous, differently filled round survives.
	for round, fill := range []int{5, 255, 40, 256, 1, 130} {
		for c.Top < fill {
			n := rng.Intn(12)
			if !c.CanAlloc(n) {
				n = c.FreeWords() - 1
			}
			a := c.Bump(MakeHeader(IDRaw, n))
			for i := range m.Space.Payload(a) {
				m.Space.Payload(a)[i] = rng.Uint64() | 1
			}
		}
		c.FromSpace = true
		c.Scan = 3
		m.TakeActive()
		m.Release(c)
		r, _ := m.Get(0, 1)
		if r != c {
			t.Fatal("expected reuse")
		}
		if r.Top != 1 || r.Scan != 1 || r.FromSpace {
			t.Errorf("round %d: reset incomplete: top=%d scan=%d from=%v", round, r.Top, r.Scan, r.FromSpace)
		}
		for i, w := range r.Region.Words {
			if w != 0 {
				t.Fatalf("round %d: stale word %#x at %d after reset", round, w, i)
			}
		}
	}

	// The Debug assertion catches a write above the bump pointer, the one
	// thing that would make clearing [0, Top) insufficient.
	c.Region.Words[c.Top+3] = 1
	m.TakeActive()
	m.Release(c)
	defer func() {
		if recover() == nil {
			t.Error("reset of a chunk dirtied above its top should panic under Debug")
		}
	}()
	m.Get(0, 1)
}

func TestChunkBumpAndOverflow(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 1)
	c, _ := m.Get(0, 0)
	if !c.CanAlloc(100) {
		t.Fatal("fresh 256-word chunk should fit 100 words")
	}
	a := c.Bump(MakeHeader(IDRaw, 100))
	if a.Word() != 2 {
		t.Errorf("first object payload at word %d, want 2", a.Word())
	}
	if c.CanAlloc(200) {
		t.Error("CanAlloc(200) should fail with 100+2 used of 256")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bump past capacity should panic")
		}
	}()
	c.Bump(MakeHeader(IDRaw, 200))
}

func TestChunkOfRegionLookup(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 1)
	c, _ := m.Get(0, 0)
	if m.ChunkOf(c.Region.ID) != c {
		t.Error("ChunkOf failed for chunk region")
	}
	if m.ChunkOf(99999) != nil {
		t.Error("ChunkOf should return nil for unknown region")
	}
}

func TestInterleavedChunkNodeFollowsPages(t *testing.T) {
	// Under interleaved placement the chunk's home node is wherever its
	// first page landed, not the requesting node.
	m := newTestManager(mempage.PolicyInterleaved, 4)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		c, _ := m.Get(0, 0)
		seen[c.Node] = true
	}
	if len(seen) < 2 {
		t.Errorf("interleaved chunks all landed on %v; want spread", seen)
	}
}

func TestFreeCount(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 3)
	a, _ := m.Get(0, 0)
	b, _ := m.Get(2, 0)
	m.TakeActive()
	m.Release(a)
	m.Release(b)
	fc := m.FreeCount()
	if fc[0] != 1 || fc[1] != 0 || fc[2] != 1 {
		t.Errorf("FreeCount = %v, want [1 0 1]", fc)
	}
}

// TestChunkBudgetHeadroom: the global budget flips HasHeadroom exactly at
// the budget boundary, Get keeps succeeding past it (collections must
// never fail mid-copy) while counting the overdraft, and a zero budget is
// genuinely unbounded — never an off-by-one "budget of zero chunks".
func TestChunkBudgetHeadroom(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 2)
	m.BudgetChunks = 3
	for i := 0; i < 3; i++ {
		if !m.HasHeadroom() {
			t.Fatalf("HasHeadroom = false at %d of 3 active", m.ActiveChunks())
		}
		m.Get(0, 0)
	}
	if m.HasHeadroom() {
		t.Error("HasHeadroom = true with the budget exhausted")
	}
	if m.Overdrafts != 0 {
		t.Errorf("Overdrafts = %d at exactly the budget, want 0", m.Overdrafts)
	}
	// A collector-side Get past the budget succeeds and is an overdraft.
	if c, _ := m.Get(0, 0); c == nil {
		t.Fatal("Get past the budget returned nil — Get must never fail")
	}
	if m.Overdrafts != 1 {
		t.Errorf("Overdrafts = %d after one over-budget Get, want 1", m.Overdrafts)
	}

	// A collection restores headroom: the active set becomes from-space
	// and is released, and the survivors fill fewer to-space chunks.
	for _, c := range m.TakeActive() {
		m.Release(c)
	}
	m.Get(0, 0)
	m.Get(0, 0)
	if !m.HasHeadroom() {
		t.Error("HasHeadroom = false at 2 of 3 after a collection")
	}

	m.BudgetChunks = 0
	for i := 0; i < 8; i++ {
		m.Get(0, 0)
	}
	if !m.HasHeadroom() {
		t.Error("unbounded manager reported no headroom")
	}
	if m.Overdrafts != 1 {
		t.Errorf("Overdrafts = %d under an unbounded budget, want the old 1", m.Overdrafts)
	}
}

// TestChunkBudgetCrossNodeReuse: at the budget, a node-affine manager
// prefers reusing a remote free chunk over growing the footprint with a
// fresh allocation; under budget, affinity wins as before.
func TestChunkBudgetCrossNodeReuse(t *testing.T) {
	m := newTestManager(mempage.PolicyLocal, 4)
	m.BudgetChunks = 2
	c, _ := m.Get(1, 0)
	m.Get(2, 0)
	// A collection whose survivors fit node 2's chunk frees node 1's; the
	// active set is back at 1 of 2.
	for _, q := range m.TakeActive() {
		m.Release(q)
	}
	m.Get(2, 0)

	// Under budget: node 3 gets a fresh chunk (affinity preserved).
	fresh, sync := m.Get(3, 0)
	if fresh == c || sync != SyncGlobal {
		t.Error("under budget, a node-affine manager should allocate fresh")
	}
	// At the budget: node 3 reuses node 1's free chunk instead of growing.
	r, sync := m.Get(3, 0)
	if r != c || sync != SyncNodeLocal {
		t.Error("at the budget, the manager should reuse a remote free chunk")
	}
}
