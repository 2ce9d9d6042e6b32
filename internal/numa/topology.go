// Package numa models the memory hierarchy of multicore NUMA machines.
//
// The model follows Appendix A of the paper: a machine is a set of processor
// packages, each containing one or more nodes (dies); every node has a set of
// cores and an integrated memory controller attached to a private bank of
// RAM. Nodes are connected by point-to-point links (HyperTransport on the
// AMD machine, QPI on the Intel machine) whose bandwidth is lower than the
// sum of the local memory links, which is what makes placement matter.
//
// Costs are expressed in virtual nanoseconds. The package is used from the
// deterministic virtual-time engine, which serializes all callers, so the
// contention accounting below is deliberately unsynchronized.
package numa

import "fmt"

// PathKind classifies the route taken by a memory access relative to the
// core that issues it.
type PathKind int

const (
	// PathLocal is an access to the issuing core's own node memory.
	PathLocal PathKind = iota
	// PathSamePackage is an access to the other node in the same package
	// (only meaningful on machines with multi-node packages, such as the
	// AMD Magny-Cours).
	PathSamePackage
	// PathRemote is an access to a node in a different package.
	PathRemote
	// PathFar is an access to a node on a different board (a group of
	// packages behind a shared inter-board link) — the extra hierarchy
	// tier of rack-scale machines. Only meaningful when the topology
	// declares more than one board (PackagesPerBoard > 0); classic
	// single-board machines never classify an access as far.
	PathFar
)

// String returns a human-readable name for the path kind.
func (k PathKind) String() string {
	switch k {
	case PathLocal:
		return "local"
	case PathSamePackage:
		return "same-package"
	case PathRemote:
		return "remote"
	case PathFar:
		return "far"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// Node describes one die: an integrated memory controller plus a set of
// cores.
type Node struct {
	ID      int
	Package int
	Cores   []int
}

// Topology describes the static shape of a machine. The presets fill every
// field; NewCustom takes one with the mandatory fields set (shape and
// bandwidths) and gives each zero-valued tuning field the calibrated default
// noted on it.
type Topology struct {
	// Name identifies the preset (e.g. "amd48").
	Name string
	// GHz is the core clock, used only for reporting. 0 means 2.0.
	GHz float64
	// Packages counts processor sockets. The three shape fields are
	// mandatory and must be positive.
	Packages int
	// NodesPerPackage counts dies per socket.
	NodesPerPackage int
	// CoresPerNode counts cores per die.
	CoresPerNode int
	// PackagesPerBoard groups packages onto boards connected by a shared
	// inter-board fabric, adding the far tier of rack-scale machines.
	// 0 (or >= Packages) means a single board: no access is ever
	// classified PathFar and the Far parameters are unused. Otherwise it
	// must divide Packages.
	PackagesPerBoard int

	// Bandwidth in bytes per nanosecond (== GB/s) for each path kind,
	// as in Table 1 of the paper. Local, same-package and remote are
	// mandatory; FarBW is the per-node share of the inter-board fabric,
	// mandatory exactly when the machine has more than one board.
	LocalBW, SamePkgBW, RemoteBW, FarBW float64
	// Latency in nanoseconds for each path kind (model constants; the
	// paper reports only bandwidths, so these are calibrated). 0 means the
	// defaults 65/95/135/400.
	LocalLat, SamePkgLat, RemoteLat, FarLat float64

	// L3Bytes is the last-level cache per node; local heaps are sized to
	// fit in it (§3.1). 0 means 4 MB.
	L3Bytes int
	// CacheBW and CacheLat model an L3 hit. 0 means 120 GB/s / 8 ns.
	CacheBW  float64
	CacheLat float64

	nodes    []Node
	coreNode []int
}

// build derives the node and core tables from the shape parameters.
func (t *Topology) build() {
	numNodes := t.Packages * t.NodesPerPackage
	t.nodes = make([]Node, numNodes)
	t.coreNode = make([]int, numNodes*t.CoresPerNode)
	core := 0
	for n := 0; n < numNodes; n++ {
		nd := Node{ID: n, Package: n / t.NodesPerPackage}
		for c := 0; c < t.CoresPerNode; c++ {
			nd.Cores = append(nd.Cores, core)
			t.coreNode[core] = n
			core++
		}
		t.nodes[n] = nd
	}
}

// NumNodes returns the number of NUMA nodes (dies) in the machine.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumCores returns the total number of cores.
func (t *Topology) NumCores() int { return len(t.coreNode) }

// NodeOfCore returns the node that owns the given core.
func (t *Topology) NodeOfCore(core int) int { return t.coreNode[core] }

// Nodes returns the node table.
func (t *Topology) Nodes() []Node { return t.nodes }

// Boards returns the number of boards; 1 unless PackagesPerBoard groups the
// packages into more than one.
func (t *Topology) Boards() int {
	if t.PackagesPerBoard <= 0 || t.PackagesPerBoard >= t.Packages {
		return 1
	}
	return (t.Packages + t.PackagesPerBoard - 1) / t.PackagesPerBoard
}

// BoardOfNode returns the board containing the node (always 0 on
// single-board machines).
func (t *Topology) BoardOfNode(node int) int {
	if t.PackagesPerBoard <= 0 || t.PackagesPerBoard >= t.Packages {
		return 0
	}
	return t.nodes[node].Package / t.PackagesPerBoard
}

// Path classifies an access from a core to memory homed on the given node.
func (t *Topology) Path(core, memNode int) PathKind {
	cn := t.coreNode[core]
	switch {
	case cn == memNode:
		return PathLocal
	case t.nodes[cn].Package == t.nodes[memNode].Package:
		return PathSamePackage
	case t.BoardOfNode(cn) != t.BoardOfNode(memNode):
		return PathFar
	default:
		return PathRemote
	}
}

// Bandwidth returns the available bandwidth (bytes/ns) for a path kind, as
// reported in Table 1.
func (t *Topology) Bandwidth(k PathKind) float64 {
	switch k {
	case PathLocal:
		return t.LocalBW
	case PathSamePackage:
		return t.SamePkgBW
	case PathFar:
		return t.FarBW
	default:
		return t.RemoteBW
	}
}

// Latency returns the base latency (ns) for a path kind.
func (t *Topology) Latency(k PathKind) float64 {
	switch k {
	case PathLocal:
		return t.LocalLat
	case PathSamePackage:
		return t.SamePkgLat
	case PathFar:
		return t.FarLat
	default:
		return t.RemoteLat
	}
}

// SparseCoreAssignment returns n distinct cores spread as evenly as possible
// across nodes, mirroring §2.2: "when there are less vprocs than processors,
// they are assigned sparsely across the nodes to minimize contention on the
// node-shared L3 cache".
func (t *Topology) SparseCoreAssignment(n int) []int {
	if n < 0 || n > t.NumCores() {
		panic(fmt.Sprintf("numa: cannot assign %d vprocs to %d cores", n, t.NumCores()))
	}
	cores := make([]int, 0, n)
	// Round-robin over nodes, taking the next unused core of each node.
	taken := make([]int, t.NumNodes())
	for len(cores) < n {
		for nd := 0; nd < t.NumNodes() && len(cores) < n; nd++ {
			if taken[nd] < len(t.nodes[nd].Cores) {
				cores = append(cores, t.nodes[nd].Cores[taken[nd]])
				taken[nd]++
			}
		}
	}
	return cores
}

// AMD48 returns the quad-socket AMD Opteron 6172 "Magny-Cours" machine from
// Appendix A.1: 4 packages x 2 nodes x 6 cores at 2.1 GHz, with the Table 1
// bandwidths (21.3 GB/s local, 19.2 GB/s to the node in the same package via
// the intra-package HT3 links, 6.4 GB/s to nodes on other packages over an
// 8-bit HT3 link). Each node has 6 MB L3 with 1 MB reserved for cross-node
// probes, leaving 5 MB usable.
func AMD48() *Topology {
	t := &Topology{
		Name:            "amd48",
		GHz:             2.1,
		Packages:        4,
		NodesPerPackage: 2,
		CoresPerNode:    6,
		LocalBW:         21.3,
		SamePkgBW:       19.2,
		RemoteBW:        6.4,
		LocalLat:        65,
		SamePkgLat:      95,
		RemoteLat:       135,
		L3Bytes:         5 << 20,
		CacheBW:         120,
		CacheLat:        8,
	}
	t.build()
	return t
}

// Intel32 returns the quad-socket Intel Xeon X7560 machine from Appendix
// A.2: 4 packages x 1 node x 8 cores at 2.266 GHz, fully connected by
// full-width QPI links. Table 1: 17.1 GB/s local, 25.6 GB/s between nodes
// (the QPI links are faster than the local DDR3-1066 risers, which is why
// the machine has a smaller NUMA penalty). Each node has 24 MB L3 with 3 MB
// reserved, leaving 21 MB usable.
func Intel32() *Topology {
	t := &Topology{
		Name:            "intel32",
		GHz:             2.266,
		Packages:        4,
		NodesPerPackage: 1,
		CoresPerNode:    8,
		LocalBW:         17.1,
		SamePkgBW:       17.1, // no second node in a package; unused
		RemoteBW:        25.6,
		LocalLat:        70,
		SamePkgLat:      70,
		RemoteLat:       110,
		L3Bytes:         21 << 20,
		CacheBW:         120,
		CacheLat:        8,
	}
	t.build()
	return t
}

// posParam reports whether v is a usable bandwidth/latency parameter: a
// positive finite number. Rejecting non-positive values here is what keeps
// a mistyped spec from silently modelling infinite-speed links.
func posParam(v float64) bool {
	return v > 0 && v <= 1e12
}

// NewCustom builds an arbitrary machine from a spec — a Topology with the
// mandatory fields set; intended for what-if experiments and the rack-scale
// presets. Every bandwidth, latency and cache parameter is checked after
// defaulting: non-positive (or non-finite) values are rejected rather than
// silently modelling infinite-speed links or free hits.
func NewCustom(s Topology) (*Topology, error) {
	if s.Packages <= 0 || s.NodesPerPackage <= 0 || s.CoresPerNode <= 0 {
		return nil, fmt.Errorf("numa: spec %q needs positive shape, got %dx%dx%d",
			s.Name, s.Packages, s.NodesPerPackage, s.CoresPerNode)
	}
	if s.PackagesPerBoard < 0 {
		return nil, fmt.Errorf("numa: spec %q has negative PackagesPerBoard %d", s.Name, s.PackagesPerBoard)
	}
	if s.PackagesPerBoard > 0 && s.Packages%s.PackagesPerBoard != 0 {
		return nil, fmt.Errorf("numa: spec %q: PackagesPerBoard %d does not divide %d packages",
			s.Name, s.PackagesPerBoard, s.Packages)
	}
	t := &s
	if t.GHz == 0 {
		t.GHz = 2.0
	}
	if t.LocalLat == 0 {
		t.LocalLat = 65
	}
	if t.SamePkgLat == 0 {
		t.SamePkgLat = 95
	}
	if t.RemoteLat == 0 {
		t.RemoteLat = 135
	}
	if t.FarLat == 0 {
		t.FarLat = 400
	}
	if t.L3Bytes == 0 {
		t.L3Bytes = 4 << 20
	}
	if t.CacheBW == 0 {
		t.CacheBW = 120
	}
	if t.CacheLat == 0 {
		t.CacheLat = 8
	}
	type param struct {
		name string
		v    float64
	}
	check := []param{
		{"GHz", t.GHz},
		{"LocalBW", t.LocalBW},
		{"SamePkgBW", t.SamePkgBW},
		{"RemoteBW", t.RemoteBW},
		{"LocalLat", t.LocalLat},
		{"SamePkgLat", t.SamePkgLat},
		{"RemoteLat", t.RemoteLat},
		{"CacheBW", t.CacheBW},
		{"CacheLat", t.CacheLat},
		{"L3Bytes", float64(t.L3Bytes)},
	}
	if t.Boards() > 1 {
		check = append(check, param{"FarBW", t.FarBW}, param{"FarLat", t.FarLat})
	}
	for _, c := range check {
		if !posParam(c.v) {
			return nil, fmt.Errorf("numa: spec %q: %s = %g must be positive and finite", s.Name, c.name, c.v)
		}
	}
	t.build()
	return t, nil
}

// mustCustom builds a preset whose spec is known-valid.
func mustCustom(s Topology) *Topology {
	t, err := NewCustom(s)
	if err != nil {
		panic(err)
	}
	return t
}

// rackSpec carries the shared interconnect parameters of the rack-scale
// presets: DDR4-class local memory behind sub-NUMA-cluster dies, a
// multi-socket fabric, and a switched inter-board link whose per-node share
// is far below any on-board path — the hierarchy tier that makes placement
// matter even more at rack scale than it does on the paper's machines.
func rackSpec(name string, packages, nodesPerPackage, coresPerNode, packagesPerBoard int) Topology {
	return Topology{
		Name:             name,
		GHz:              2.5,
		Packages:         packages,
		NodesPerPackage:  nodesPerPackage,
		CoresPerNode:     coresPerNode,
		PackagesPerBoard: packagesPerBoard,
		LocalBW:          80,
		SamePkgBW:        60,
		RemoteBW:         30,
		FarBW:            12,
		LocalLat:         90,
		SamePkgLat:       110,
		RemoteLat:        150,
		FarLat:           400,
		L3Bytes:          32 << 20,
		CacheBW:          200,
		CacheLat:         6,
	}
}

// Rack256 returns a 256-core two-board machine: 2 boards x 4 packages x
// 2 sub-NUMA-cluster dies x 16 cores.
func Rack256() *Topology { return mustCustom(rackSpec("rack256", 8, 2, 16, 4)) }

// Rack1024 returns a 1024-core four-board machine: 4 boards x 4 packages x
// 4 dies x 16 cores.
func Rack1024() *Topology { return mustCustom(rackSpec("rack1024", 16, 4, 16, 4)) }

// Rack4096 returns a 4096-core four-board machine: 4 boards x 8 packages x
// 4 dies x 32 cores.
func Rack4096() *Topology { return mustCustom(rackSpec("rack4096", 32, 4, 32, 8)) }

// Preset returns a named preset topology.
func Preset(name string) (*Topology, error) {
	switch name {
	case "amd48":
		return AMD48(), nil
	case "intel32":
		return Intel32(), nil
	case "rack256":
		return Rack256(), nil
	case "rack1024":
		return Rack1024(), nil
	case "rack4096":
		return Rack4096(), nil
	default:
		return nil, fmt.Errorf("numa: unknown machine preset %q (want amd48, intel32, rack256, rack1024 or rack4096)", name)
	}
}
