package numa

import (
	"math"
	"strings"
	"testing"
)

// validSpec returns a small two-board spec that NewCustom accepts; tests
// mutate one field at a time to probe validation.
func validSpec() Topology {
	return Topology{
		Name:             "probe",
		Packages:         4,
		NodesPerPackage:  2,
		CoresPerNode:     2,
		PackagesPerBoard: 2,
		LocalBW:          20,
		SamePkgBW:        15,
		RemoteBW:         8,
		FarBW:            3,
	}
}

func TestNewCustomAcceptsValidSpec(t *testing.T) {
	topo, err := NewCustom(validSpec())
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if topo.NumCores() != 16 || topo.NumNodes() != 8 {
		t.Fatalf("shape = %d cores / %d nodes, want 16/8", topo.NumCores(), topo.NumNodes())
	}
	if topo.Boards() != 2 {
		t.Fatalf("Boards() = %d, want 2", topo.Boards())
	}
	// Defaulted tuning parameters.
	if topo.GHz != 2.0 || topo.LocalLat != 65 || topo.FarLat != 400 || topo.L3Bytes != 4<<20 {
		t.Fatalf("defaults not applied: GHz=%g LocalLat=%g FarLat=%g L3=%d",
			topo.GHz, topo.LocalLat, topo.FarLat, topo.L3Bytes)
	}
}

func TestNewCustomRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"zero packages", func(s *Topology) { s.Packages = 0 }},
		{"negative nodes", func(s *Topology) { s.NodesPerPackage = -1 }},
		{"zero cores", func(s *Topology) { s.CoresPerNode = 0 }},
		{"negative boards", func(s *Topology) { s.PackagesPerBoard = -2 }},
		{"indivisible boards", func(s *Topology) { s.PackagesPerBoard = 3 }},
		{"zero local bw", func(s *Topology) { s.LocalBW = 0 }},
		{"negative samepkg bw", func(s *Topology) { s.SamePkgBW = -4 }},
		{"zero remote bw", func(s *Topology) { s.RemoteBW = 0 }},
		{"zero far bw on boarded machine", func(s *Topology) { s.FarBW = 0 }},
		{"NaN far latency", func(s *Topology) { s.FarLat = math.NaN() }},
		{"Inf local latency", func(s *Topology) { s.LocalLat = math.Inf(1) }},
		{"negative remote latency", func(s *Topology) { s.RemoteLat = -1 }},
		{"negative cache bw", func(s *Topology) { s.CacheBW = -120 }},
		{"negative L3", func(s *Topology) { s.L3Bytes = -1 }},
		{"NaN GHz", func(s *Topology) { s.GHz = math.NaN() }},
	}
	for _, c := range cases {
		s := validSpec()
		c.mut(&s)
		if _, err := NewCustom(s); err == nil {
			t.Errorf("%s: spec accepted, want error", c.name)
		}
	}
	// A single-board machine must NOT require far parameters.
	s := validSpec()
	s.PackagesPerBoard = 0
	s.FarBW = 0
	if _, err := NewCustom(s); err != nil {
		t.Errorf("single-board spec with zero FarBW rejected: %v", err)
	}
}

func TestRackPresetShapes(t *testing.T) {
	cases := []struct {
		name                 string
		cores, nodes, boards int
	}{
		{"rack256", 256, 16, 2},
		{"rack1024", 1024, 64, 4},
		{"rack4096", 4096, 128, 4},
	}
	for _, c := range cases {
		topo, err := Preset(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if topo.NumCores() != c.cores || topo.NumNodes() != c.nodes || topo.Boards() != c.boards {
			t.Errorf("%s = %d cores / %d nodes / %d boards, want %d/%d/%d",
				c.name, topo.NumCores(), topo.NumNodes(), topo.Boards(), c.cores, c.nodes, c.boards)
		}
		// Every node maps to a valid board and the per-board node count is
		// uniform.
		per := map[int]int{}
		for n := 0; n < topo.NumNodes(); n++ {
			b := topo.BoardOfNode(n)
			if b < 0 || b >= topo.Boards() {
				t.Fatalf("%s: node %d on board %d (of %d)", c.name, n, b, topo.Boards())
			}
			per[b]++
		}
		for b, cnt := range per {
			if cnt != topo.NumNodes()/topo.Boards() {
				t.Errorf("%s: board %d holds %d nodes, want %d", c.name, b, cnt, topo.NumNodes()/topo.Boards())
			}
		}
	}
	// The paper machines are single-board: no far tier.
	for _, name := range []string{"amd48", "intel32"} {
		topo, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if topo.Boards() != 1 {
			t.Errorf("%s: Boards() = %d, want 1", name, topo.Boards())
		}
	}
}

func TestFarPathClassification(t *testing.T) {
	topo := mustCustom(validSpec()) // 2 boards x 2 packages x 2 nodes x 2 cores
	// Core 0 is on node 0, package 0, board 0. Node 1 shares the package;
	// node 2 is package 1, still board 0; node 4 is package 2, board 1.
	cases := []struct {
		node int
		want PathKind
	}{
		{0, PathLocal},
		{1, PathSamePackage},
		{2, PathRemote},
		{3, PathRemote},
		{4, PathFar},
		{7, PathFar},
	}
	for _, c := range cases {
		if got := topo.Path(0, c.node); got != c.want {
			t.Errorf("Path(0,%d) = %v, want %v", c.node, got, c.want)
		}
	}
	if PathFar.String() != "far" {
		t.Errorf("PathFar.String() = %q", PathFar.String())
	}
	if topo.Bandwidth(PathFar) != 3 || topo.Latency(PathFar) != 400 {
		t.Errorf("far tier params = %g GB/s / %g ns, want 3/400",
			topo.Bandwidth(PathFar), topo.Latency(PathFar))
	}
}

func TestFarCostOrdering(t *testing.T) {
	m := NewMachine(Rack256())
	topo := m.Topo
	// Find one node of each kind relative to core 0.
	nodeOf := func(k PathKind) int {
		for n := 0; n < topo.NumNodes(); n++ {
			if topo.Path(0, n) == k {
				return n
			}
		}
		t.Fatalf("no node with path %v", k)
		return -1
	}
	local := m.AccessCost(0, 0, nodeOf(PathLocal), 1<<16, AccessMemory)
	same := m.AccessCost(0, 0, nodeOf(PathSamePackage), 1<<16, AccessMemory)
	remote := m.AccessCost(0, 0, nodeOf(PathRemote), 1<<16, AccessMemory)
	far := m.AccessCost(0, 0, nodeOf(PathFar), 1<<16, AccessMemory)
	if !(local < same && same < remote && remote < far) {
		t.Errorf("cost ordering violated: local=%d same=%d remote=%d far=%d", local, same, remote, far)
	}
	st := m.Stats()
	if st.BytesByPath[PathFar] != 1<<16 {
		t.Errorf("far bytes = %d, want %d", st.BytesByPath[PathFar], 1<<16)
	}
}

func TestRackBandwidthTableShowsFarTier(t *testing.T) {
	s := NewMachine(Rack256()).BandwidthTable()
	if !strings.Contains(s, "another board") {
		t.Errorf("boarded table missing far row:\n%s", s)
	}
	s = NewMachine(AMD48()).BandwidthTable()
	if strings.Contains(s, "another board") {
		t.Errorf("single-board table shows far row:\n%s", s)
	}
}

// TestRackPresetTablesPinned holds the rack presets to the tables they had
// when NewCustom still copied a separate spec struct field by field: the
// digests below were recorded from that tree, so a field the spec-is-a-Topology
// fold dropped, defaulted differently or mis-ordered shows up here.
func TestRackPresetTablesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"rack256", 0x65531fbc47c18895},
		{"rack1024", 0x117927042b4b8495},
		{"rack4096", 0xd565e6bc9ac6e495},
	} {
		topo, err := Preset(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := uint64(14695981039346656037)
		mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
		for core := 0; core < topo.NumCores(); core++ {
			for node := 0; node < topo.NumNodes(); node++ {
				mix(uint64(topo.Path(core, node)))
			}
		}
		for k := PathLocal; k <= PathFar; k++ {
			mix(math.Float64bits(topo.Bandwidth(k)))
			mix(math.Float64bits(topo.Latency(k)))
		}
		mix(math.Float64bits(topo.GHz))
		mix(uint64(topo.L3Bytes))
		mix(math.Float64bits(topo.CacheBW))
		mix(math.Float64bits(topo.CacheLat))
		if h != c.want {
			t.Errorf("%s: Path/Bandwidth/Latency table digest %#x, want %#x", c.name, h, c.want)
		}
	}
}
