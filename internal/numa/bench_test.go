package numa

import "testing"

// The uncontended benchmarks mirror the simulator's real charge pattern:
// many vprocs spread over all nodes, each epoch far under budget, so every
// charge's multiplier is exactly 1. Charges round-robin over
// (core, node) pairs so no single meter's accumulation chain serializes
// the loop — exactly as 48 vprocs hammering 8 node meters behave. The
// contended benchmark pins time inside one epoch on one node so every
// iteration pays the multiplier math.

// benchPoints precomputes the charge mix shared by the Machine and
// Reference benchmarks.
type benchPoint struct {
	core, node, bytes int
}

// benchMixMask sizes the mix to a power of two so the benchmark loop can
// select points with a mask instead of a modulo.
const benchMixMask = 63

// benchMix interleaves home nodes and path classes the way the engine
// interleaves vprocs: consecutive charges hit different meters over a
// rotating local/same-package/remote mix, so no single meter or
// accumulator slot serializes the loop.
func benchMix(t *Topology) []benchPoint {
	pts := make([]benchPoint, benchMixMask+1)
	sizes := []int{64, 256, 512, 1024}
	for i := range pts {
		node := i % t.NumNodes()
		var coreNode int
		switch i % 3 {
		case 0:
			coreNode = node // local
		case 1:
			coreNode = node ^ 1 // same package on AMD48
		default:
			coreNode = (node + 2) % t.NumNodes() // remote
		}
		pts[i] = benchPoint{t.Nodes()[coreNode].Cores[0], node, sizes[i%len(sizes)]}
	}
	return pts
}

func BenchmarkAccessCostUncontended(b *testing.B) {
	m := NewMachine(AMD48())
	pts := benchMix(m.Topo)
	var now int64
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pts[i&benchMixMask]
		sink += m.AccessCost(now, p.core, p.node, p.bytes, AccessMemory)
		now += 12
	}
	benchSink = sink
}

func BenchmarkAccessCostUncontendedReference(b *testing.B) {
	m := NewReference(AMD48())
	pts := benchMix(m.Topo)
	var now int64
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pts[i&benchMixMask]
		sink += m.AccessCost(now, p.core, p.node, p.bytes, AccessMemory)
		now += 12
	}
	benchSink = sink
}

func BenchmarkAccessCostCache(b *testing.B) {
	m := NewMachine(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.AccessCost(int64(i), 0, 0, 256, AccessCache)
	}
	benchSink = sink
}

func BenchmarkAccessCostCacheReference(b *testing.B) {
	m := NewReference(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.AccessCost(int64(i), 0, 0, 256, AccessCache)
	}
	benchSink = sink
}

func BenchmarkAccessCostContended(b *testing.B) {
	m := NewMachine(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.AccessCost(1000, 6, 0, 1<<16, AccessMemory)
	}
	benchSink = sink
}

func BenchmarkAccessCostContendedReference(b *testing.B) {
	m := NewReference(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.AccessCost(1000, 6, 0, 1<<16, AccessMemory)
	}
	benchSink = sink
}

func BenchmarkStreamCostUncontended(b *testing.B) {
	m := NewMachine(AMD48())
	pts := benchMix(m.Topo)
	var now int64
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pts[i&benchMixMask]
		sink += m.transfer(now, p.core, p.node, p.bytes, AccessMemory, true)
		now += 12
	}
	benchSink = sink
}

func BenchmarkStreamCostUncontendedReference(b *testing.B) {
	m := NewReference(AMD48())
	pts := benchMix(m.Topo)
	var now int64
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pts[i&benchMixMask]
		sink += m.StreamCost(now, p.core, p.node, p.bytes, AccessMemory)
		now += 12
	}
	benchSink = sink
}

func BenchmarkCacheAccessCostBatched(b *testing.B) {
	m := NewMachine(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.CacheAccessCost(256)
	}
	benchSink = sink
}

func BenchmarkCacheStreamCostBatched(b *testing.B) {
	m := NewMachine(AMD48())
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.CacheStreamCost(256)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the measured loops.
var benchSink int64
