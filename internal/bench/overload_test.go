package bench

import (
	"testing"

	"repro/internal/workload"
)

// TestOverloadGracefulDegradation pins the sweep's acceptance property on
// both machines: past saturation the deadline policy's goodput plateaus
// (it retains most of its peak) while the no-control baseline collapses
// (its unbounded queue turns every completion into an SLO miss), and at
// the top load the controlled policy strictly beats no-control.
func TestOverloadGracefulDegradation(t *testing.T) {
	sw := DefaultOverloadSweep()
	sw.Admissions = []workload.AdmissionPolicy{workload.AdmitNone, workload.AdmitDeadline}
	sw.FaultSeed = 0
	pts, err := MeasureOverload(sw, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	peak := map[string]float64{}
	top := map[string]float64{}
	for _, p := range pts {
		k := p.Machine + "/" + p.Admission
		if g := goodputRate(p.GoodSLO, p.VirtualMs); g > peak[k] {
			peak[k] = g
		}
		if p.Load == "4x" {
			top[k] = goodputRate(p.GoodSLO, p.VirtualMs)
		}
	}
	for _, m := range []string{"amd48", "intel32"} {
		none, deadline := m+"/none", m+"/deadline"
		if top[deadline] <= top[none] {
			t.Errorf("%s at 4x load: deadline goodput %.2f/us <= no-control %.2f/us", m, top[deadline], top[none])
		}
		if ratio := top[deadline] / peak[deadline]; ratio < 0.6 {
			t.Errorf("%s: deadline goodput fell to %.0f%% of peak at 4x load — want a plateau (>= 60%%)", m, ratio*100)
		}
		if ratio := top[none] / peak[none]; ratio > 0.55 {
			t.Errorf("%s: no-control goodput still %.0f%% of peak at 4x load — the baseline should collapse (<= 55%%)", m, ratio*100)
		}
	}
}
