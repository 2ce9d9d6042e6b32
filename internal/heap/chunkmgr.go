package heap

// SyncClass describes the synchronization a chunk operation required, so
// the runtime can charge an appropriate cost (§3.3: "This synchronization
// is either node-local because it involves the reuse of a chunk of memory
// or global if a new chunk needs to be requested from the system and
// registered with the runtime").
type SyncClass int

const (
	// SyncNodeLocal is a node-local free-list pop.
	SyncNodeLocal SyncClass = iota
	// SyncGlobal is a fresh system allocation plus runtime registration.
	SyncGlobal
)

// ChunkManager owns the global heap's chunks: per-node free lists with
// node-affine reuse, the set of active (data-bearing) chunks, and the
// bookkeeping behind the global-GC trigger.
type ChunkManager struct {
	Space      *Space
	ChunkWords int
	// NodeAffine preserves node affinity on reuse (§3.1). Disabling it
	// is an ablation: reuse then takes any free chunk regardless of
	// node.
	NodeAffine bool
	// Debug enables internal consistency assertions (double-free,
	// double-activation); set by the runtime's Debug mode.
	Debug bool

	// BudgetChunks caps the number of simultaneously active chunks in
	// the global heap; 0 means unbounded (the paper's model, and the
	// behavior every existing baseline was recorded under). The budget
	// is advisory at this layer: Get never fails, it only reports the
	// overdraft, so collections — which must be able to copy survivors
	// — always complete. Enforcement happens at mutator allocation
	// gates in internal/core, which consult HasHeadroom before
	// committing new work to the heap.
	BudgetChunks int

	freeByNode [][]*Chunk
	active     []*Chunk
	// byRegion maps region ID → chunk, dense: region IDs are assigned
	// sequentially by the Space, so a slice indexed by ID (nil for
	// non-chunk regions) replaces the map the global collector's
	// forwarding fast path would otherwise hash into for every pointer.
	byRegion []*Chunk

	// AllocatedWords counts words in active chunks; the global collection
	// trigger compares this against a threshold (§3.4: "the number of
	// vprocs times 32MB" in the paper, scaled in this reproduction).
	AllocatedWords int

	// Stats.
	Created  int
	Reused   int
	Released int
	// Overdrafts counts activations that pushed the active set past
	// BudgetChunks — chunks handed to collectors (which may not fail
	// mid-copy) after the mutator-visible budget was exhausted.
	Overdrafts int
}

// NewChunkManager creates a manager producing chunks of chunkWords words.
func NewChunkManager(s *Space, chunkWords, numNodes int) *ChunkManager {
	if chunkWords < 64 {
		panic("heap: chunk size too small")
	}
	return &ChunkManager{
		Space:      s,
		ChunkWords: chunkWords,
		NodeAffine: true,
		freeByNode: make([][]*Chunk, numNodes),
	}
}

// Get hands out a chunk for the vproc on reqNode, reusing a node-local free
// chunk when possible. It returns the chunk and the synchronization class
// the operation required.
func (m *ChunkManager) Get(reqNode, owner int) (*Chunk, SyncClass) {
	if fl := m.freeByNode[reqNode]; len(fl) > 0 {
		c := fl[len(fl)-1]
		m.freeByNode[reqNode] = fl[:len(fl)-1]
		c.reset(owner, m.Debug)
		m.activate(c)
		m.Reused++
		return c, SyncNodeLocal
	}
	if !m.NodeAffine || (m.BudgetChunks > 0 && len(m.active) >= m.BudgetChunks) {
		// Take any free chunk, ignoring node affinity. Two callers land
		// here: the NodeAffine ablation, and a bounded heap at/over its
		// budget — where reusing a remote free chunk (paying remote
		// traffic) beats growing the footprint past the budget.
		for n := range m.freeByNode {
			if fl := m.freeByNode[n]; len(fl) > 0 {
				c := fl[len(fl)-1]
				m.freeByNode[n] = fl[:len(fl)-1]
				c.reset(owner, m.Debug)
				m.activate(c)
				m.Reused++
				return c, SyncNodeLocal
			}
		}
	}
	// Fresh allocation: pages placed by the policy on behalf of reqNode.
	r := m.Space.NewRegion(RegionChunk, owner, m.ChunkWords, reqNode)
	c := &Chunk{Region: r, Top: 1, Scan: 1, Owner: owner}
	// The chunk's home node is where its first page actually landed
	// (under interleaved placement this differs from reqNode).
	c.Node = m.Space.Pages.NodeOfWord(r.BasePage, 0)
	for len(m.byRegion) <= r.ID {
		m.byRegion = append(m.byRegion, nil)
	}
	m.byRegion[r.ID] = c
	m.activate(c)
	m.Created++
	return c, SyncGlobal
}

// ChunkOf returns the chunk backed by the given region ID, or nil if the
// region is not a chunk region.
func (m *ChunkManager) ChunkOf(regionID int) *Chunk {
	if regionID < 0 || regionID >= len(m.byRegion) {
		return nil
	}
	return m.byRegion[regionID]
}

// activate adds a chunk to the active set and the trigger accounting.
func (m *ChunkManager) activate(c *Chunk) {
	if m.Debug {
		for _, q := range m.active {
			if q == c {
				panic("heap: chunk double-activated")
			}
		}
	}
	m.active = append(m.active, c)
	m.AllocatedWords += m.ChunkWords
	if m.BudgetChunks > 0 && len(m.active) > m.BudgetChunks {
		m.Overdrafts++
	}
}

// HasHeadroom reports whether another chunk's worth of data may be
// committed to the global heap without exceeding the budget. With no
// budget it is always true. This is the mutator-side gate: collections
// bypass it (they overdraft via Get, which never fails).
func (m *ChunkManager) HasHeadroom() bool {
	return m.BudgetChunks == 0 || len(m.active) < m.BudgetChunks
}

// ActiveChunks returns the number of active (data-bearing) chunks — the
// numerator of the occupancy signal when BudgetChunks > 0.
func (m *ChunkManager) ActiveChunks() int { return len(m.active) }

// Release returns a chunk to its node's free list. It is called on
// from-space chunks after a global collection, whose words were already
// removed from the trigger accounting by TakeActive.
func (m *ChunkManager) Release(c *Chunk) {
	if m.Debug {
		for _, fl := range m.freeByNode {
			for _, q := range fl {
				if q == c {
					panic("heap: chunk double-freed")
				}
			}
		}
	}
	m.freeByNode[c.Node] = append(m.freeByNode[c.Node], c)
	m.Released++
}

// Active returns the active chunk list (shared slice; callers must not
// mutate).
func (m *ChunkManager) Active() []*Chunk { return m.active }

// TakeActive removes and returns all active chunks, used by the global
// collector to form the from-space set.
func (m *ChunkManager) TakeActive() []*Chunk {
	a := m.active
	m.active = nil
	m.AllocatedWords = 0
	return a
}
