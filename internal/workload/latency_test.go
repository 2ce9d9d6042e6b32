package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// N returns the number of recorded samples.
func (h *Hist) N() int64 { return h.n }

// latTestOptions is a small harness shape for correctness tests.
func latTestOptions() LatencyOptions {
	return LatencyOptions{Clients: 40, Requests: 5, MeanGapNs: 60_000}
}

// latPressureConfig provokes every collection flavor during the run.
func latPressureConfig(t testing.TB, nv int) core.Config {
	t.Helper()
	cfg := testConfig(t, nv)
	cfg.GlobalTriggerWords = 2 * cfg.ChunkWords
	return cfg
}

func TestHistBucketRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose [low, nextLow) range
	// contains it, and bucket lows must be strictly increasing.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, (1 << 40) + 12345, 1<<62 + 7}
	for _, v := range vals {
		b := histBucketOf(v)
		lo := histBucketLow(b)
		hi := int64(1<<63 - 1)
		if b+1 < histBuckets {
			hi = histBucketLow(b + 1)
		}
		if v < lo || v >= hi {
			t.Errorf("value %d mapped to bucket %d = [%d, %d)", v, b, lo, hi)
		}
	}
	for i := 1; i < histBuckets; i++ {
		if histBucketLow(i) <= histBucketLow(i-1) {
			t.Fatalf("bucket lows not increasing at %d: %d <= %d", i, histBucketLow(i), histBucketLow(i-1))
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	// Quantiles report bucket lower bounds: within one bucket (~3%) below
	// the exact order statistic, never above it.
	cases := []struct {
		num, den, exact int64
	}{{50, 100, 500}, {90, 100, 900}, {99, 100, 990}, {999, 1000, 999}, {1, 1000, 1}}
	for _, c := range cases {
		got := h.Quantile(c.num, c.den)
		if got > c.exact || got < c.exact-c.exact/16-1 {
			t.Errorf("Quantile(%d/%d) = %d, want within a bucket below %d", c.num, c.den, got, c.exact)
		}
	}
	var empty Hist
	if empty.Quantile(50, 100) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestLatencyMatchesReference: the reply checksum equals the host-side
// reference at every vproc count, on the full 48-vproc machine and under
// either collector — message contents are never corrupted by the
// timer-driven scheduling — and for a burst (mean gap 0, the server
// workload's plan) at 1, 4 and 16 vprocs.
func TestLatencyMatchesReference(t *testing.T) {
	opt := latTestOptions()
	burst := opt
	burst.MeanGapNs = 0
	concurrent := latPressureConfig(t, 4)
	concurrent.ConcurrentGlobal, concurrent.Debug = true, true
	for _, row := range []struct {
		cfg core.Config
		opt LatencyOptions
	}{
		{testConfig(t, 1), opt}, {testConfig(t, 2), opt}, {testConfig(t, 4), opt}, {heavyPressureConfig(48), opt}, {concurrent, opt},
		{testConfig(t, 1), burst}, {testConfig(t, 4), burst}, {heavyPressureConfig(16), burst},
	} {
		cfg, opt := row.cfg, row.opt
		want := LatencySeq(testConfig(t, 1).Seed, opt)
		cfg.Debug = cfg.Debug || cfg.NumVProcs == 2
		rt := core.MustNewRuntime(cfg)
		res := RunLatency(rt, opt)
		if res.Check != want {
			t.Errorf("latency at %d vprocs, gap %d ns (concurrent GC %v): check %#x, want %#x", cfg.NumVProcs, opt.MeanGapNs, cfg.ConcurrentGlobal, res.Check, want)
		}
		if res.Requests != opt.Clients*opt.Requests {
			t.Errorf("completed %d requests, want %d", res.Requests, opt.Clients*opt.Requests)
		}
		if int(res.Hist.N()) != res.Requests {
			t.Errorf("histogram holds %d samples, want %d", res.Hist.N(), res.Requests)
		}
		if res.Stats.TimersFired < int64(res.Requests) {
			t.Errorf("TimersFired = %d; every request send is timer-fired (want >= %d)",
				res.Stats.TimersFired, res.Requests)
		}
	}
}

// TestConcurrentMarkDeliversExactlyOnce runs TestStepKernelEquivalence's
// latency shape — p=8, 2 K-word heaps, 512-word chunks, Debug on — under the
// concurrent collector for 80 seeds on both machines and all three
// placement policies. A mark assist or an idle vproc's gray scan forwards a
// slot with a visit that may advance, and a client's pop of a channel's
// queue made meanwhile must survive the scan's write-back (heap.ScanObject):
// a scan that wrote back a record's stale head had a message received twice
// and the next never (a checksum off LatencySeq), or a receiver waiting for
// good (a deadlock panic). Every run must match LatencySeq; a panic fails
// its run.
func TestConcurrentMarkDeliversExactlyOnce(t *testing.T) {
	opt := latRowOptions
	run := func(cfg core.Config) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		if got, want := RunLatency(core.MustNewRuntime(cfg), opt).Check, LatencySeq(cfg.Seed, opt); got != want {
			return fmt.Errorf("check %#x, want %#x", got, want)
		}
		return nil
	}
	runs, failed := 0, 0
	for _, topo := range []*numa.Topology{numa.AMD48(), numa.Intel32()} {
		for _, pol := range []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode} {
			for seed := uint64(1); seed <= 80; seed++ {
				cfg := stepKernelConfig(topo, pol, 2<<10, 512)
				cfg.Seed, cfg.ConcurrentGlobal, cfg.Debug = seed, true, true
				runs++
				if err := run(cfg); err != nil {
					failed++
					t.Errorf("%s/%s seed %d: %v", topo.Name, pol, seed, err)
				}
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d runs failed", failed, runs)
	}
}

// TestLatencyDeterministicRerun: the full result — percentiles, histogram,
// attribution bands — is bit-identical across reruns, including under GC
// pressure.
func TestLatencyDeterministicRerun(t *testing.T) {
	run := func() LatencyResult {
		rt := core.MustNewRuntime(latPressureConfig(t, 4))
		return RunLatency(rt, latTestOptions())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("latency results diverged across reruns:\n  %+v\nvs\n  %+v", a.All, b.All)
		if a.P50 != b.P50 || a.P99 != b.P99 {
			t.Logf("percentiles: %d/%d/%d/%d vs %d/%d/%d/%d", a.P50, a.P90, a.P99, a.P999, b.P50, b.P90, b.P99, b.P999)
		}
	}
}

// TestLatencyAttributionUnderPressure: with tiny heaps and a low global
// trigger the run must cross global collections, and the attribution must
// see them: requests alive during a stop-the-world pause carry its full
// duration, so the tail band's global share must be populated and the p99.9
// tail must sit above the median.
func TestLatencyAttributionUnderPressure(t *testing.T) {
	rt := core.MustNewRuntime(latPressureConfig(t, 4))
	res := RunLatency(rt, latTestOptions())
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("pressure config did not force a global collection")
	}
	if res.P999 < res.P50 {
		t.Errorf("p99.9 %d < p50 %d", res.P999, res.P50)
	}
	if res.All.Count != res.Requests {
		t.Errorf("All band covers %d of %d requests", res.All.Count, res.Requests)
	}
	if res.Tail.Count == 0 || res.Tail.Count > res.All.Count {
		t.Errorf("Tail band covers %d requests (all: %d)", res.Tail.Count, res.All.Count)
	}
	if res.Tail.MeanNs < res.All.MeanNs {
		t.Errorf("tail mean %d below overall mean %d", res.Tail.MeanNs, res.All.MeanNs)
	}
	if res.All.GlobalGCs == 0 {
		t.Error("no request lifetime overlapped a global collection")
	}
	// The acceptance figure: stop-the-world pauses dominate the p99.9 tail
	// — the mean global overlap in the tail band exceeds the (normalized)
	// local overlap and is a substantial share of tail latency.
	if res.Tail.Global.MeanNs <= res.Tail.Local.MeanNs {
		t.Errorf("tail global overlap %d ns <= local %d ns; expected global pauses to dominate",
			res.Tail.Global.MeanNs, res.Tail.Local.MeanNs)
	}
	if res.Tail.GlobalShare() < 0.25 {
		t.Errorf("global share of tail latency = %.2f, want >= 0.25 (tail mean %d, global %d)",
			res.Tail.GlobalShare(), res.Tail.MeanNs, res.Tail.Global.MeanNs)
	}
}

// TestLatencySpecEntryPoint: the harness at a scale of its default shape
// (DefaultLatencyOptions, the shape the core determinism tests run) leaves a
// verifier-clean heap and the reference checksum.
func TestLatencySpecEntryPoint(t *testing.T) {
	opt := DefaultLatencyOptions(0.25)
	rt := core.MustNewRuntime(testConfig(t, 2))
	res := RunLatency(rt, opt)
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants: %v", err)
	}
	if want := LatencySeq(testConfig(t, 1).Seed, opt); res.Check != want {
		t.Errorf("check %#x, want %#x", res.Check, want)
	}
}

// TestSpanSetOverlap holds the prefix-sum totals to a brute-force sum on
// random span sets — nested, overlapping, zero-length and repeated spans —
// built from the ends as a harness records them, in arrival order
// (spanTotals sorts and sums them in place), with queries that start and end
// on span boundaries as often as between them, empty and reversed ones
// included. It holds the count of distinct global cycles a band's requests
// overlap (markCycles) to the brute-force count of the same sets of
// requests against sorted, disjoint cycles, adjacent and zero-length ones
// included.
func TestSpanSetOverlap(t *testing.T) {
	rng := newRand(0x5ba2)
	intn := func(n int) int64 { return int64(rng.Next() % uint64(n)) }
	for round := 0; round < 300; round++ {
		var ivs []span
		for i := intn(40); i > 0; i-- {
			lo := intn(1000)
			switch intn(4) {
			case 0: // zero-length
				ivs = append(ivs, span{lo, lo})
			case 1: // long, so that others nest in it
				ivs = append(ivs, span{lo, lo + 200 + intn(800)})
			default:
				ivs = append(ivs, span{lo, lo + 1 + intn(60)})
			}
			if intn(8) == 0 {
				ivs = append(ivs, ivs[len(ivs)-1])
			}
		}
		var los, his []int64
		for _, iv := range ivs {
			los, his = append(los, iv.lo), append(his, iv.hi)
		}
		totals := newSpanTotals(los, his)
		point := func(ivs []span) int64 {
			if len(ivs) > 0 && intn(2) == 0 {
				iv := ivs[intn(len(ivs))]
				return []int64{iv.lo, iv.hi, iv.lo - 1, iv.hi + 1}[intn(4)]
			}
			return intn(2200) - 100
		}
		for q := 0; q < 100; q++ {
			start, end := point(ivs), point(ivs)
			var want int64
			for _, iv := range ivs {
				want += max(0, min(iv.hi, end)-max(iv.lo, start))
			}
			if got := totals.overlap(start, end); got != want {
				t.Fatalf("spans %v, [%d, %d): prefix sums %d, brute force %d", ivs, start, end, got, want)
			}
		}

		var cycles []span
		for at := intn(50); at < 2000; at += intn(120) {
			c := span{at, at + intn(4)*intn(60)} // zero-length a quarter of the time
			cycles = append(cycles, c)
			at = c.hi
		}
		seen := make([]bool, len(cycles))
		seenWant := map[span]bool{}
		var got int
		for q := 0; q < 20; q++ {
			s := span{point(cycles), 0}
			s.hi = s.lo + []int64{0, 1, intn(40), intn(400)}[intn(4)]
			got += markCycles(cycles, seen, s)
			for _, c := range cycles {
				if min(c.hi, s.hi) > max(c.lo, s.lo) {
					seenWant[c] = true
				}
			}
			if got != len(seenWant) {
				t.Fatalf("cycles %v, request %d [%d, %d): %d distinct cycles, brute force %d", cycles, q, s.lo, s.hi, got, len(seenWant))
			}
		}
	}
}
