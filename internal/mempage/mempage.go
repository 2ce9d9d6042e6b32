// Package mempage simulates physical-page placement on a NUMA machine.
//
// The real runtime asks the operating system for pages and controls (via
// libnuma / mbind) which node's memory bank backs them. The paper's §4.3
// compares three placement policies; figures 5-7 differ only in this choice,
// so the simulation models pages explicitly: every heap region is backed by
// a run of 4 KB pages, and each page has a home node assigned by the policy
// in force when it was first allocated.
package mempage

import "fmt"

const (
	// PageBytes is the simulated page size.
	PageBytes = 4096
	// PageWords is the page size in 64-bit words.
	PageWords = PageBytes / 8
)

// Policy selects how pages are assigned to nodes.
type Policy int

const (
	// PolicyLocal allocates pages on the node of the requesting vproc —
	// the paper's default strategy (§4.3, Figure 5).
	PolicyLocal Policy = iota
	// PolicyInterleaved balances pages round-robin across all nodes —
	// the GHC-style strategy (Figure 6).
	PolicyInterleaved
	// PolicySingleNode places every page on node 0 — the default NUMA
	// behaviour seen by single-threaded collectors (Figure 7).
	PolicySingleNode
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLocal:
		return "local"
	case PolicyInterleaved:
		return "interleaved"
	case PolicySingleNode:
		return "single-node"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "local":
		return PolicyLocal, nil
	case "interleaved":
		return PolicyInterleaved, nil
	case "single-node", "single", "socket-zero":
		return PolicySingleNode, nil
	default:
		return 0, fmt.Errorf("mempage: unknown policy %q", s)
	}
}

// Table is the simulated page table: an append-only map from page index to
// home node. Serialized by the virtual-time engine.
type Table struct {
	policy   Policy
	numNodes int
	pageNode []int16
	nextRR   int
}

// NewTable creates a page table for a machine with numNodes nodes.
func NewTable(policy Policy, numNodes int) *Table {
	if numNodes <= 0 {
		panic("mempage: need at least one node")
	}
	return &Table{policy: policy, numNodes: numNodes}
}

// Alloc allocates n contiguous pages on behalf of a vproc running on
// reqNode and returns the index of the first page.
func (t *Table) Alloc(n, reqNode int) int {
	if n <= 0 {
		panic("mempage: Alloc of non-positive page count")
	}
	if reqNode < 0 || reqNode >= t.numNodes {
		panic(fmt.Sprintf("mempage: Alloc from invalid node %d", reqNode))
	}
	first := len(t.pageNode)
	for i := 0; i < n; i++ {
		var node int
		switch t.policy {
		case PolicyLocal:
			node = reqNode
		case PolicyInterleaved:
			node = t.nextRR
			t.nextRR = (t.nextRR + 1) % t.numNodes
		case PolicySingleNode:
			node = 0
		default:
			panic("mempage: invalid policy")
		}
		t.pageNode = append(t.pageNode, int16(node))
	}
	return first
}

// HomeOfRange returns the common home node of the n pages starting at
// first, or -1 when the range spans nodes. Under the local and single-node
// policies every range is homogeneous; under interleaved placement only
// single-page ranges are.
func (t *Table) HomeOfRange(first, n int) int {
	node := t.pageNode[first]
	for i := 1; i < n; i++ {
		if t.pageNode[first+i] != node {
			return -1
		}
	}
	return int(node)
}

// NodeOfWord returns the home node of the word at the given offset within a
// region whose backing starts at basePage.
func (t *Table) NodeOfWord(basePage int, wordIdx int) int {
	return int(t.pageNode[basePage+wordIdx/PageWords])
}

// PagesFor returns the number of pages needed to back the given number of
// 64-bit words.
func PagesFor(words int) int {
	return (words + PageWords - 1) / PageWords
}
