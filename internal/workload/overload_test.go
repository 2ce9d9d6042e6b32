package workload

import (
	"testing"

	"repro/internal/core"
)

// ovTestOptions is a small overload shape that still saturates the test
// machine: mean request ~28 words at 300 ns/word is ~8.4 us of service, so
// 4 vprocs serve ~0.48 requests/us while 60 clients at a 30 us gap offer
// ~2/us — about 4x saturation, enough for every policy to differentiate.
func ovTestOptions() OverloadOptions {
	opt := DefaultOverloadOptions(1.0)
	opt.Clients = 60
	opt.Requests = 4
	opt.MeanGapNs = 30_000
	return opt
}

func runOverloadAt(t testing.TB, nv int, opt OverloadOptions, faultSeed uint64) OverloadResult {
	rt := core.MustNewRuntime(testConfig(t, nv))
	if faultSeed != 0 {
		// Fresh plan per run: InstallFaults arms pointers into the event
		// slice, so reusing one plan across runtimes would alias state.
		opt.Faults = core.RandomFaultPlan(faultSeed, nv, 300_000, 2, 2)
	}
	return RunOverload(rt, opt)
}

// TestOverloadDeterministicRerun: the full result — makespan, checksum,
// every counter, the latency histogram, and the runtime statistics — is
// bit-identical across reruns, for every admission policy, with and
// without an installed fault plan. OverloadResult is a comparable value
// struct, so one == catches any divergence.
func TestOverloadDeterministicRerun(t *testing.T) {
	for _, pol := range []AdmissionPolicy{AdmitNone, AdmitQueue, AdmitDeadline} {
		for _, seed := range []uint64{0, 0xFA115AFE} {
			opt := ovTestOptions()
			opt.Admission = pol
			r1 := runOverloadAt(t, 4, opt, seed)
			r2 := runOverloadAt(t, 4, opt, seed)
			if r1 != r2 {
				t.Errorf("%v (fault seed %#x): reruns diverged:\n%+v\n%+v", pol, seed, r1, r2)
			}
			if seed != 0 && r1.Stats.FaultsInjected == 0 {
				t.Errorf("%v: fault plan installed but nothing injected", pol)
			}
		}
	}
}

// TestOverloadAccounting: every offered request resolves exactly once, the
// lane-shed counter ties out against retries and sheds, and each policy
// exercises exactly the failure modes it is supposed to.
func TestOverloadAccounting(t *testing.T) {
	for _, pol := range []AdmissionPolicy{AdmitNone, AdmitQueue, AdmitDeadline} {
		opt := ovTestOptions()
		opt.Admission = pol
		res := runOverloadAt(t, 4, opt, 0)
		if got := res.Completed + res.Expired + res.ShedAdmission + res.ShedFault; got != res.Offered {
			t.Errorf("%v: %d resolved of %d offered", pol, got, res.Offered)
		}
		// Every non-OK TrySend is a lane shed: one per retry, one per
		// admission shed (budget exhausted), one per fault shed.
		if want := res.Retries + int64(res.ShedAdmission+res.ShedFault); res.Stats.ChanSheds != want {
			t.Errorf("%v: ChanSheds = %d, want %d (retries %d + shed %d)",
				pol, res.Stats.ChanSheds, want, res.Retries, res.ShedAdmission+res.ShedFault)
		}
		if res.ShedAdmission > 0 && res.Retries < int64(res.ShedAdmission*ovMaxRetries) {
			t.Errorf("%v: %d sheds but only %d retries (budget %d each)",
				pol, res.ShedAdmission, res.Retries, ovMaxRetries)
		}
		switch pol {
		case AdmitNone:
			if res.ShedAdmission != 0 || res.Retries != 0 || res.Expired != 0 {
				t.Errorf("none: unbounded lane shed %d / retried %d / expired %d", res.ShedAdmission, res.Retries, res.Expired)
			}
			if res.Completed != res.Offered {
				t.Errorf("none: %d of %d completed — the no-control baseline completes everything", res.Completed, res.Offered)
			}
		case AdmitQueue:
			if res.Expired != 0 {
				t.Errorf("queue: %d expired — only the deadline policy nacks", res.Expired)
			}
			if res.Retries == 0 {
				t.Error("queue: no retries at 4x saturation — the bounded lane never filled")
			}
		case AdmitDeadline:
			if res.Expired == 0 {
				t.Error("deadline: no server-side nacks at 4x saturation")
			}
		}
	}
}

// TestOverloadLaneCloseShedsAll: a fault-plan close of the request lane
// before the first possible arrival resolves the entire offered load as
// ShedFault — and the run still quiesces (close-as-status, not a hang).
func TestOverloadLaneCloseShedsAll(t *testing.T) {
	opt := ovTestOptions()
	opt.Admission = AdmitDeadline
	opt.LaneCloseNs = 1
	res := runOverloadAt(t, 4, opt, 0)
	if res.ShedFault != res.Offered || res.Completed != 0 || res.Expired != 0 || res.ShedAdmission != 0 {
		t.Errorf("early lane close: completed %d expired %d shedAdmission %d shedFault %d of %d offered",
			res.Completed, res.Expired, res.ShedAdmission, res.ShedFault, res.Offered)
	}
}

// TestOverloadLaneCloseValidated: a lane close that could land after an
// accepted arrival would drop queued requests and hang the run, so
// RunOverload must reject it at the API boundary.
func TestOverloadLaneCloseValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RunOverload accepted a LaneCloseNs inside the arrival window")
		}
	}()
	opt := ovTestOptions()
	opt.LaneCloseNs = opt.MeanGapNs / 2
	RunOverload(core.MustNewRuntime(testConfig(t, 4)), opt)
}

// TestOverloadFaultStressGCPressure drives the full-size overload shape at
// 4x saturation on the heavy-GC configuration with a seeded stall/burst
// plan and the debug heap verifier on — the fault-injection analogue of
// TestServerHeavyTrafficGCPressure, and the -race target for the
// recoverable-failure paths (TrySend, deadline nacks, retry timers, fault
// timers) under dense collection interleaving.
func TestOverloadFaultStressGCPressure(t *testing.T) {
	cfg := heavyPressureConfig(16)
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	opt := DefaultOverloadOptions(1.0)
	opt.Admission = AdmitDeadline
	opt.MeanGapNs = 40_000
	opt.Faults = core.RandomFaultPlan(0xFA115AFE, 16, 600_000, 3, 3)
	res := RunOverload(rt, opt)
	if got := res.Completed + res.Expired + res.ShedAdmission + res.ShedFault; got != res.Offered {
		t.Errorf("accounting leak under faults: %d resolved of %d offered", got, res.Offered)
	}
	if res.Stats.FaultsInjected != 6 {
		t.Errorf("FaultsInjected = %d, want 6", res.Stats.FaultsInjected)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Error("expected global collections under pressure")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants after faulted overload run: %v", err)
	}
}
