package numa

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInvalidNodePanics requires every metered entry point to reject an
// out-of-range home node with the descriptive panic, before it counts any
// traffic — on core 0, and on core 43, whose pathTab row has neighbours on
// both sides that an unchecked index would alias.
func TestInvalidNodePanics(t *testing.T) {
	topo := AMD48()
	ok := topo.NumNodes() - 1
	entries := []struct {
		name string
		call func(m *Machine, core, node int, kind AccessKind)
		// counted is the traffic a call legitimately counts before it
		// reaches the invalid node: a copy's source read.
		counted func(m *Machine, core int, kind AccessKind)
	}{
		{"AccessCost", func(m *Machine, core, node int, k AccessKind) { m.AccessCost(0, core, node, 64, k) }, nil},
		{"stream transfer", func(m *Machine, core, node int, k AccessKind) { m.transfer(0, core, node, 64, k, true) }, nil},
		{"CopyStreamCost src", func(m *Machine, core, node int, k AccessKind) { m.CopyStreamCost(0, core, node, ok, 64, k, k) }, nil},
		{"CopyStreamCost dst", func(m *Machine, core, node int, k AccessKind) { m.CopyStreamCost(0, core, ok, node, 64, k, k) },
			func(m *Machine, core int, k AccessKind) { m.transfer(0, core, ok, 64, k, true) }},
	}
	for _, e := range entries {
		for _, node := range []int{-1, topo.NumNodes()} {
			for _, kind := range []AccessKind{AccessCache, AccessMemory} {
				for _, core := range []int{0, 43} {
					name := fmt.Sprintf("%s core=%d node=%d kind=%d", e.name, core, node, kind)
					m, clean := NewMachine(topo), NewMachine(topo)
					if m.Meterless(core, node, kind) {
						t.Errorf("%s: Meterless reports true", name)
					}
					want := fmt.Sprintf("numa: access to invalid node %d", node)
					func() {
						defer func() {
							if r := recover(); r != want {
								t.Errorf("%s: recovered %v, want panic %q", name, r, want)
							}
						}()
						e.call(m, core, node, kind)
					}()
					if e.counted != nil {
						e.counted(clean, core, kind)
					}
					if got := m.Stats(); got != clean.Stats() {
						t.Errorf("%s: rejected charge counted traffic: %+v, want %+v", name, got, clean.Stats())
					}
				}
			}
		}
	}
}

// TestNewMachineAllocBudget pins construction to the path table, the meters
// and the struct: nothing sized by transfer size.
func TestNewMachineAllocBudget(t *testing.T) {
	for _, c := range []struct {
		topo   *Topology
		budget uint64
	}{
		{AMD48(), 8 << 10},
		{Rack256(), 64 << 10},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewMachine(c.topo)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= c.budget {
			t.Errorf("NewMachine(%s) allocated %d bytes, budget %d", c.topo.Name, got, c.budget)
		}
		runtime.KeepAlive(m)
	}
}

// TestChargesDoNotAllocate keeps the simulator's innermost loop off the
// host heap, under budget and over it.
func TestChargesDoNotAllocate(t *testing.T) {
	m := NewMachine(AMD48())
	var now int64
	charges := []struct {
		name string
		f    func()
	}{
		{"AccessCost uncontended", func() { now += 1000; m.AccessCost(now, 0, 3, 256, AccessMemory) }},
		{"stream transfer uncontended", func() { now += 1000; m.transfer(now, 0, 3, 256, AccessMemory, true) }},
		{"CopyStreamCost uncontended", func() { now += 1000; m.CopyStreamCost(now, 0, 0, 3, 256, AccessCache, AccessMemory) }},
		{"AccessCost contended", func() { m.AccessCost(now, 6, 0, 1<<16, AccessMemory) }},
		{"stream transfer contended", func() { m.transfer(now, 6, 0, 1<<16, AccessMemory, true) }},
		{"CopyStreamCost contended", func() { m.CopyStreamCost(now, 6, 0, 2, 1<<16, AccessMemory, AccessMemory) }},
		{"CacheAccessCost", func() { m.CacheAccessCost(256) }},
	}
	for _, c := range charges {
		if n := testing.AllocsPerRun(1000, c.f); n != 0 {
			t.Errorf("%s: %v allocations per charge, want 0", c.name, n)
		}
	}
}
