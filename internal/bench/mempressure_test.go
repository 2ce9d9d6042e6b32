package bench

import (
	"slices"
	"testing"
)

// TestMempressureWall pins the figure's story at the tightest budget, on
// both machines: the budget-blind policy reaches the wall (emergency
// ladders, failed allocations), the memory-aware policy sheds at admission
// and never does — and every point's books balance exactly. The sweep
// trimmed to the unbounded anchor, the tightest budget, and the squeeze
// points keeps the test fast while covering the memory gate, the emergency
// ladder, and the squeeze-fault paths.
func TestMempressureWall(t *testing.T) {
	pts := slices.DeleteFunc(MempressurePoints(), func(p Point) bool { return p.Budget != 0 && p.Budget != 16 })
	pts, err := Measure(pts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := p.Completed + p.Expired + p.ShedAdmission + p.ShedFault + p.ShedMemory + p.FailedDeadline; got != p.Offered {
			t.Errorf("%s: %d resolved of %d offered", p.Key(), got, p.Offered)
		}
		if p.Budget != 16 {
			continue
		}
		switch p.Admission {
		case "queue":
			if p.EmergencyGCs == 0 || p.AllocFailed == 0 {
				t.Errorf("%s: emergency %d, alloc-failed %d — the blind policy should hit the wall",
					p.Key(), p.EmergencyGCs, p.AllocFailed)
			}
		case "memory":
			if p.EmergencyGCs != 0 || p.AllocFailed != 0 {
				t.Errorf("%s: emergency %d, alloc-failed %d — the aware policy should shed first",
					p.Key(), p.EmergencyGCs, p.AllocFailed)
			}
			if p.ShedMemory == 0 {
				t.Errorf("%s: the memory gate never shed", p.Key())
			}
		}
	}
}
