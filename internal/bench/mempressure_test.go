package bench

import "testing"

// TestMempressureWall pins the figure's story at the tightest budget, on
// both machines: the budget-blind policy reaches the wall (emergency
// ladders, failed allocations), the memory-aware policy sheds at admission
// and never does — and every point's books balance exactly. A trimmed sweep
// (the unbounded anchor, the tightest budget, and the squeeze points) keeps
// the test fast while covering the memory gate, the emergency ladder, and
// the squeeze-fault paths.
func TestMempressureWall(t *testing.T) {
	sw := DefaultMempressureSweep()
	sw.Budgets = []int{0, 16}
	pts, err := MeasureMempressure(sw, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := p.Completed + p.Expired + p.ShedAdmission + p.ShedFault + p.ShedMemory; got != p.Offered {
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
