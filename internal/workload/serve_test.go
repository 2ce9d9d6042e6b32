package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// checkLedger asserts the result's exact resolution partition and the
// splits and counters that must agree with it.
func checkLedger(t *testing.T, label string, res ServeResult) {
	t.Helper()
	if got := res.Completed + res.Expired + res.ShedAdmission + res.ShedFault + res.ShedMemory + res.FailedDeadline + res.LostClient; got != res.Offered {
		t.Errorf("%s: %d resolved of %d offered", label, got, res.Offered)
	}
	if res.GoodSLO > res.Completed || res.GoodPre > res.GoodSLO || res.OfferedPre > res.Offered || res.LostPre > res.LostClient {
		t.Errorf("%s: good %d of %d completed, pre-crash split offered %d good %d lost %d of %d/%d/%d",
			label, res.GoodSLO, res.Completed, res.OfferedPre, res.GoodPre, res.LostPre, res.Offered, res.GoodSLO, res.LostClient)
	}
	if int64(res.Completed) != res.Hist.N() {
		t.Errorf("%s: %d completions but %d latency samples", label, res.Completed, res.Hist.N())
	}
	if res.HedgeWins > res.Hedged {
		t.Errorf("%s: %d hedge wins of %d hedges", label, res.HedgeWins, res.Hedged)
	}
}

// TestServeLedgerExactlyOnce: across admission x replicas x crash x hedge x
// heap budget, every offered request resolves exactly once — the ledger
// itself panics on a second resolution or an unresolved request — the
// result's totals are the per-client ledgers' sums, each client's requests
// all resolved, and the SLO counts agree with the latency histogram. Small
// scale with the heap verifier on, so every collection inside the mix is
// checked too. A fault-free AdmitNone run's checksum is the same at every
// vproc count.
func TestServeLedgerExactlyOnce(t *testing.T) {
	for _, adm := range []AdmissionPolicy{AdmitNone, AdmitQueue, AdmitDeadline, AdmitMemory} {
		for _, replicas := range []int{1, 2} {
			for _, crash := range []CrashKind{CrashNone, CrashVProc} {
				for _, hedge := range []int64{0, 20_000} {
					for _, budget := range []int{0, 4} {
						if hedge > 0 && replicas < 2 {
							continue // Validate rejects it: a hedge needs another replica
						}
						label := fmt.Sprintf("%v r=%d crash=%v hedge=%d budget=%d", adm, replicas, crash, hedge, budget)
						checkServeLedger(t, label, adm, replicas, crash, hedge, budget)
					}
				}
			}
		}
	}
	// A fault-free AdmitNone run on one replica serves every request, so its
	// checksum folds request contents alone: the same at 1, 4 and 16 vprocs,
	// whatever share of the requests met the SLO.
	opt := DefaultServeOptions(1.0)
	opt.Clients, opt.Requests, opt.MeanGapNs, opt.Admission = 48, 3, 10_000, AdmitNone
	var want uint64
	for _, nv := range []int{1, 4, 16} {
		res := RunServe(core.MustNewRuntime(heavyPressureConfig(nv)), opt)
		if nv == 1 {
			want = res.Check
		}
		if res.Check != want || res.Completed != res.Offered {
			t.Errorf("AdmitNone at %d vprocs: check %#x, want %#x; completed %d of %d (good %d)",
				nv, res.Check, want, res.Completed, res.Offered, res.GoodSLO)
		}
	}
}

func checkServeLedger(t *testing.T, label string, adm AdmissionPolicy, replicas int, crash CrashKind, hedge int64, budget int) {
	t.Helper()
	cfg := testConfig(t, 4)
	cfg.Debug = true
	cfg.GlobalBudgetChunks = budget
	rt := core.MustNewRuntime(cfg)
	opt := DefaultServeOptions(1.0)
	opt.Clients, opt.Requests, opt.MeanGapNs = 48, 3, 10_000
	opt.Admission, opt.Replicas, opt.HedgeDelayNs = adm, replicas, hedge
	if crash != CrashNone {
		opt.Crash, opt.CrashNs = crash, 30_000
	}
	if err := opt.Validate(cfg.Topo, cfg.NumVProcs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := newServe(rt, opt)
	res := st.run(rt)
	checkLedger(t, label, res)
	var sums [resLostClient + 1]int
	if n := len(st.outcome); n != opt.Clients*opt.Requests {
		t.Errorf("%s: the ledger has %d entries for %d clients of %d requests", label, n, opt.Clients, opt.Requests)
	}
	for c := range opt.Clients {
		var mine [resLostClient + 1]int
		for _, k := range st.outcome[st.at(c, 0):st.at(c+1, 0)] {
			mine[k]++
			sums[k]++
		}
		if mine[unresolved] != 0 {
			t.Errorf("%s: client %d has %d unresolved of %d requests", label, c, mine[unresolved], opt.Requests)
		}
	}
	for _, f := range []struct {
		name string
		got  int
		want int
	}{
		{"completed", res.Completed, sums[resCompleted]},
		{"expired", res.Expired, sums[resExpired]},
		{"shed admission", res.ShedAdmission, sums[resShedAdmission]},
		{"shed fault", res.ShedFault, sums[resShedFault]},
		{"shed memory", res.ShedMemory, sums[resShedMemory]},
		{"failed deadline", res.FailedDeadline, sums[resFailedDeadline]},
		{"lost client", res.LostClient, sums[resLostClient]},
	} {
		if f.got != f.want {
			t.Errorf("%s: %s %d, but the client ledgers sum to %d", label, f.name, f.got, f.want)
		}
	}
	// GoodSLO and GoodPre are the histogram's samples within the SLO: the
	// completed lifetimes rebuild the histogram exactly, and those within
	// ServeSLONs of their arrival are the good ones.
	var hist Hist
	good, goodPre := 0, 0
	for _, s := range st.served {
		hist.Record(s.hi - s.lo)
		if s.hi-s.lo <= ServeSLONs {
			good++
			if s.lo < opt.CrashNs {
				goodPre++
			}
		}
	}
	if hist != res.Hist || good != res.GoodSLO || goodPre != res.GoodPre {
		t.Errorf("%s: good %d (pre-crash %d), but %d (%d) of the %d samples are within the SLO; histograms equal: %v",
			label, res.GoodSLO, res.GoodPre, good, goodPre, len(st.served), hist == res.Hist)
	}
	if crash == CrashNone && (res.LostClient != 0 || res.HorizonNs != 0 || res.Crashes != 0) {
		t.Errorf("%s: no crash planned, yet lost %d, watchdog at %d, crashes %d", label, res.LostClient, res.HorizonNs, res.Crashes)
	}
	if replicas == 1 && crash == CrashNone && (res.BreakerTrips != 0 || res.FastFails != 0 || res.Rerouted != 0) {
		t.Errorf("%s: an unrouted run tripped %d breakers, fast-failed %d, rerouted %d", label, res.BreakerTrips, res.FastFails, res.Rerouted)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("%s: heap invariants: %v", label, err)
	}
}
