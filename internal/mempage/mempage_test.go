package mempage

import (
	"testing"
	"testing/quick"
)

// PerNode returns the per-node page counts.
func (t *Table) PerNode() []int {
	out := make([]int, t.numNodes)
	for _, node := range t.pageNode {
		out[node]++
	}
	return out
}

// NodeOf returns the home node of a page.
func (t *Table) NodeOf(page int) int {
	return int(t.pageNode[page])
}

func TestLocalPolicyPinsToRequestingNode(t *testing.T) {
	tb := NewTable(PolicyLocal, 8)
	first := tb.Alloc(16, 5)
	for p := first; p < first+16; p++ {
		if tb.NodeOf(p) != 5 {
			t.Fatalf("page %d on node %d, want 5", p, tb.NodeOf(p))
		}
	}
}

func TestInterleavedPolicyBalances(t *testing.T) {
	tb := NewTable(PolicyInterleaved, 8)
	tb.Alloc(800, 3)
	per := tb.PerNode()
	for n, c := range per {
		if c != 100 {
			t.Errorf("node %d has %d pages, want 100", n, c)
		}
	}
}

func TestInterleavedBalanceProperty(t *testing.T) {
	// Regardless of the allocation request sequence, interleaving keeps
	// the per-node page counts within 1 of each other.
	f := func(sizes []uint8) bool {
		tb := NewTable(PolicyInterleaved, 4)
		for i, s := range sizes {
			tb.Alloc(int(s%32)+1, i%4)
		}
		per := tb.PerNode()
		min, max := per[0], per[0]
		for _, v := range per {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodePolicy(t *testing.T) {
	tb := NewTable(PolicySingleNode, 8)
	tb.Alloc(50, 7)
	tb.Alloc(50, 2)
	per := tb.PerNode()
	if per[0] != 100 {
		t.Errorf("node 0 has %d pages, want 100", per[0])
	}
	for n := 1; n < 8; n++ {
		if per[n] != 0 {
			t.Errorf("node %d has %d pages, want 0", n, per[n])
		}
	}
}

func TestNodeOfWord(t *testing.T) {
	tb := NewTable(PolicyInterleaved, 4)
	base := tb.Alloc(4, 0) // nodes 0,1,2,3
	if got := tb.NodeOfWord(base, 0); got != 0 {
		t.Errorf("word 0 node = %d, want 0", got)
	}
	if got := tb.NodeOfWord(base, PageWords); got != 1 {
		t.Errorf("word %d node = %d, want 1", PageWords, got)
	}
	if got := tb.NodeOfWord(base, 3*PageWords+17); got != 3 {
		t.Errorf("last page node = %d, want 3", got)
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct{ words, want int }{
		{1, 1}, {PageWords, 1}, {PageWords + 1, 2}, {10 * PageWords, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.words); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"local", "interleaved", "single-node", "socket-zero"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("best-effort"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyLocal.String() != "local" || PolicyInterleaved.String() != "interleaved" || PolicySingleNode.String() != "single-node" {
		t.Error("policy names wrong")
	}
}
