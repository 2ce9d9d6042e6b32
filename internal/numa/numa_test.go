package numa

import (
	"testing"
	"testing/quick"
)

// PackageOfNode returns the package (socket) containing the node.
func (t *Topology) PackageOfNode(node int) int { return t.nodes[node].Package }

func TestAMD48Shape(t *testing.T) {
	m := AMD48()
	if m.NumNodes() != 8 {
		t.Errorf("AMD48 nodes = %d, want 8", m.NumNodes())
	}
	if m.NumCores() != 48 {
		t.Errorf("AMD48 cores = %d, want 48", m.NumCores())
	}
	// Appendix A.1: each processor (package) contains two nodes of six
	// cores each.
	for n := 0; n < 8; n++ {
		if got := len(m.Nodes()[n].Cores); got != 6 {
			t.Errorf("node %d cores = %d, want 6", n, got)
		}
		if got := m.PackageOfNode(n); got != n/2 {
			t.Errorf("node %d package = %d, want %d", n, got, n/2)
		}
	}
}

func TestIntel32Shape(t *testing.T) {
	m := Intel32()
	if m.NumNodes() != 4 {
		t.Errorf("Intel32 nodes = %d, want 4", m.NumNodes())
	}
	if m.NumCores() != 32 {
		t.Errorf("Intel32 cores = %d, want 32", m.NumCores())
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	amd, intel := AMD48(), Intel32()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"AMD local", amd.LocalBW, 21.3},
		{"AMD same package", amd.SamePkgBW, 19.2},
		{"AMD other package", amd.RemoteBW, 6.4},
		{"Intel local", intel.LocalBW, 17.1},
		{"Intel other package", intel.RemoteBW, 25.6},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Table 1 %s = %.1f GB/s, want %.1f", c.name, c.got, c.want)
		}
	}
}

func TestPathClassification(t *testing.T) {
	m := AMD48()
	// Core 0 is on node 0 (package 0); node 1 is the same package;
	// node 2 is another package.
	if got := m.Path(0, 0); got != PathLocal {
		t.Errorf("Path(0,0) = %v, want local", got)
	}
	if got := m.Path(0, 1); got != PathSamePackage {
		t.Errorf("Path(0,1) = %v, want same-package", got)
	}
	if got := m.Path(0, 2); got != PathRemote {
		t.Errorf("Path(0,2) = %v, want remote", got)
	}
	// Intel: single-node packages mean everything non-local is remote.
	i := Intel32()
	if got := i.Path(0, 1); got != PathRemote {
		t.Errorf("Intel Path(0,1) = %v, want remote", got)
	}
}

func TestSparseAssignmentSpreadsNodes(t *testing.T) {
	m := AMD48()
	cores := m.SparseCoreAssignment(8)
	seen := map[int]bool{}
	for _, c := range cores {
		seen[m.NodeOfCore(c)] = true
	}
	if len(seen) != 8 {
		t.Errorf("8 vprocs landed on %d distinct nodes, want 8", len(seen))
	}
	// Full machine: every core used exactly once.
	all := m.SparseCoreAssignment(48)
	used := map[int]bool{}
	for _, c := range all {
		if used[c] {
			t.Fatalf("core %d assigned twice", c)
		}
		used[c] = true
	}
}

func TestSparseAssignmentProperty(t *testing.T) {
	m := AMD48()
	f := func(nRaw uint8) bool {
		n := int(nRaw)%m.NumCores() + 1
		cores := m.SparseCoreAssignment(n)
		if len(cores) != n {
			return false
		}
		// No node may host more than ceil(n/nodes)+... the round-robin
		// guarantees max-min spread <= 1 while nodes have capacity.
		per := map[int]int{}
		for _, c := range cores {
			per[m.NodeOfCore(c)]++
		}
		min, max := 1<<30, 0
		for nd := 0; nd < m.NumNodes(); nd++ {
			v := per[nd]
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

func TestAccessCostOrdering(t *testing.T) {
	m := NewMachine(AMD48())
	local := m.AccessCost(0, 0, 0, 4096, AccessMemory)
	samePkg := m.AccessCost(0, 0, 1, 4096, AccessMemory)
	remote := m.AccessCost(0, 0, 2, 4096, AccessMemory)
	if !(local < samePkg && samePkg < remote) {
		t.Errorf("cost ordering violated: local=%d samePkg=%d remote=%d", local, samePkg, remote)
	}
	cache := m.AccessCost(0, 0, 0, 4096, AccessCache)
	if cache >= local {
		t.Errorf("cache access (%d) should be cheaper than local DRAM (%d)", cache, local)
	}
}

func TestIntelRemoteFasterBandwidthThanLocal(t *testing.T) {
	// Table 1's oddity: Intel QPI remote bandwidth (25.6) exceeds local
	// (17.1); for large transfers the bandwidth term dominates but
	// latency still favors local for small ones.
	m := NewMachine(Intel32())
	smallLocal := m.AccessCost(0, 0, 0, 64, AccessMemory)
	smallRemote := m.AccessCost(0, 0, 1, 64, AccessMemory)
	if smallLocal >= smallRemote {
		t.Errorf("small transfer: local (%d) should beat remote (%d) on latency", smallLocal, smallRemote)
	}
}

func TestContentionSaturatesNode(t *testing.T) {
	m := NewMachine(AMD48())
	// One streaming reader: baseline remote cost.
	base := m.AccessCost(0, 6, 0, 1<<16, AccessMemory)
	// Hammer node 0 with traffic from all other nodes within one epoch.
	var last int64
	for i := 0; i < 400; i++ {
		core := (i % 7) * 6 // cores on nodes 1..7 (avoid node 0 local)
		last = m.AccessCost(1000, core+6, 0, 1<<16, AccessMemory)
	}
	if last <= 2*base {
		t.Errorf("node-0 saturation: cost grew only from %d to %d", base, last)
	}
}

func TestContentionDecaysAcrossEpochs(t *testing.T) {
	m := NewMachine(AMD48())
	for i := 0; i < 200; i++ {
		m.AccessCost(1000, 6, 0, 1<<16, AccessMemory)
	}
	hot := m.AccessCost(1000, 6, 0, 1<<16, AccessMemory)
	// Far in the future: fresh epochs, demand decayed.
	cool := m.AccessCost(100*m.EpochNs, 6, 0, 1<<16, AccessMemory)
	if cool >= hot {
		t.Errorf("contention did not decay: hot=%d cool=%d", hot, cool)
	}
}

func TestPresetLookup(t *testing.T) {
	if _, err := Preset("amd48"); err != nil {
		t.Errorf("amd48 preset: %v", err)
	}
	if _, err := Preset("intel32"); err != nil {
		t.Errorf("intel32 preset: %v", err)
	}
	if _, err := Preset("sparc"); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestBandwidthTableRendering(t *testing.T) {
	s := NewMachine(AMD48()).BandwidthTable()
	for _, want := range []string{"21.3", "19.2", "6.4"} {
		if !contains(s, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, s)
		}
	}
	si := NewMachine(Intel32()).BandwidthTable()
	if !contains(si, "n/a") {
		t.Errorf("Intel Table 1 should mark same-package n/a:\n%s", si)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
