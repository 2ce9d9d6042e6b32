package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vtime"
)

// Open-loop latency harness: the measurement axis the throughput figures
// miss — they time a fixed amount of work, so a stalled world only
// lengthens the makespan (the `server` workload is this harness as a burst,
// every arrival at instant 0). At a positive mean gap the arrivals are
// open-loop: every request's send instant is drawn up front from a seeded
// per-client stream and armed as a virtual-time timer, so requests keep
// arriving on schedule no matter how the runtime is doing — exactly how
// traffic from millions of independent users behaves. Latency is measured
// from the *scheduled* arrival (not the actual send), so time a client spends
// stuck behind a collection counts against the runtime rather than being
// silently omitted (the "coordinated omission" trap in closed-loop
// measurement).
//
// Thousands of logical clients multiplex as continuation tasks over the
// vprocs: each client is a timer-driven send chain (AtThen) plus a reply
// collection chain (RecvThen), so no client occupies a stack frame and any
// vproc can carry any client's next step. Requests flow over two request
// lanes, small and large, to a pool of server chains with fixed quotas
// (srvSpawnPool, srvServe), and every reply records a completion instant.
// Per-request latencies feed a deterministic log-bucketed histogram (Hist),
// and each request's lifetime is intersected with the GC event timeline to
// attribute tail latency to collection phases.
const (
	latClients  = 300 // logical clients at scale 1
	latRequests = 8   // requests per client at scale 1

	// latMeanGapNs is the default mean inter-arrival gap per client; the
	// aggregate offered load is Clients/MeanGap requests per virtual ns.
	latMeanGapNs = 400_000
)

// LatencyOptions configures the harness.
type LatencyOptions struct {
	Clients   int   // logical clients
	Requests  int   // requests per client
	MeanGapNs int64 // mean per-client inter-arrival gap (offered load knob); 0 is a burst
}

// Validate reports why the options cannot run on nv vprocs, or nil; gctrace
// calls it before the run. A mean gap of 0 or 1 ns is a burst, every
// arrival at instant 0; the CLIs ask for at least 2 ns, an offered load.
func (o LatencyOptions) Validate(nv int) error {
	switch {
	case o.Clients < 1 || o.Requests < 1 || o.MeanGapNs < 0:
		return fmt.Errorf("workload: bad latency options %+v", o)
	case !planFits(nv, o.Requests, o.MeanGapNs):
		return fmt.Errorf("workload: %d requests per client at a mean gap of %d ns can plan arrivals past %d ns, half the virtual clock of a %d-vproc run",
			o.Requests, o.MeanGapNs, vtime.MaxKeyClock(nv)/2, nv)
	}
	return nil
}

// DefaultLatencyOptions scales the default shape.
func DefaultLatencyOptions(scale float64) LatencyOptions {
	return LatencyOptions{
		Clients:   scaled(latClients, scale),
		Requests:  scaled(latRequests, scale),
		MeanGapNs: latMeanGapNs,
	}
}

// PhasePause aggregates one collection kind's contribution to request
// latency: the virtual time by which the phase's events overlapped request
// lifetimes, averaged per request (integer ns, deterministic).
type PhasePause struct {
	// MeanNs is the mean overlap per request in the band.
	MeanNs int64
	// MaxNs is the largest single-request overlap in the band.
	MaxNs int64
}

// AttributionBand is the pause attribution over one set of requests: all of
// them, or a latency-percentile tail.
type AttributionBand struct {
	Count     int
	MeanNs    int64 // mean request latency in the band
	Global    PhasePause
	Local     PhasePause
	GlobalGCs int // distinct global collections overlapping the band
}

// GlobalShare returns the fraction of the band's mean latency attributable
// to global collections (0 when the band is empty).
func (b AttributionBand) GlobalShare() float64 {
	if b.MeanNs == 0 {
		return 0
	}
	return float64(b.Global.MeanNs) / float64(b.MeanNs)
}

// Latencies is what a harness measures of its completed requests: their
// latencies from scheduled arrival, in a histogram and as the figures'
// percentile ladder, and their GC-pause attribution.
type Latencies struct {
	Hist Hist
	// Quantiles of the latency histogram, in virtual ns (bucket lower
	// bounds, deterministic).
	P50, P90, P99, P999 int64

	// All covers every completed request; Tail covers those at or above
	// P999 — the band the acceptance figure reads (global-GC pauses
	// dominating p99.9).
	All, Tail AttributionBand
}

// LatencyResult is one harness execution.
type LatencyResult struct {
	Result // makespan, checksum (content-only, vproc-count-invariant), stats

	Requests int
	Latencies
}

// latState is the harness's host-side bookkeeping. All mutation happens in
// engine-serialized task code, so plain slices suffice.
type latState struct {
	openPlan
	served  []span           // completed requests' lifetimes, scheduled arrival to reply
	lanes   [2]*core.Channel // request lanes, indexed by openPlan.lane
	replies []*core.Channel
}

// latCollect folds one reply, records its request's lifetime, and re-parks
// for the next; the fold is commutative (replies may interleave in any
// deterministic order without changing the checksum).
func latCollect(vp *core.VProc, st *latState, c, remaining int) {
	if remaining == 0 {
		return
	}
	st.replies[c].RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
		p := vp.ReadBlock(msg)
		seq, sum := p[0], p[1]
		st.served = append(st.served, span{st.arrival[c][seq], vp.Now()})
		st.acc[c] += fnv1a(fnv1a(0, seq), sum)
		latCollect(vp, st, c, remaining-1)
	})
}

// RunLatency executes the open-loop harness on rt and post-processes the
// recorded instants into percentiles and pause attribution. The virtual
// results are deterministic: bit-identical across reruns and across any
// host-side worker count.
func RunLatency(rt *core.Runtime, opt LatencyOptions) LatencyResult {
	if err := opt.Validate(rt.Cfg.NumVProcs); err != nil {
		panic(err.Error())
	}
	total := opt.Clients * opt.Requests
	st := &latState{openPlan: planOpenLoop(rt.Cfg.Seed, opt.Clients, opt.Requests, opt.MeanGapNs), served: make([]span, 0, total)}
	st.lanes = [2]*core.Channel{rt.NewChannel(), rt.NewChannel()}
	st.replies = make([]*core.Channel, opt.Clients)
	for i := range st.replies {
		st.replies[i] = rt.NewChannel()
	}

	// Record the GC event timeline for attribution.
	var events []core.GCEvent
	defer recordGCEvents(rt, &events)()

	servers := min(rt.Cfg.NumVProcs, opt.Clients)
	st.send = func(vp *core.VProc, c, r int) { sendRaw(vp, st.lanes[st.lane[c][r]], st.payload(c, r, 2)) }

	elapsed := rt.Run(func(vp *core.VProc) {
		// Fixed quotas summing to the request total: every request is
		// answered and every chain terminates (the server workload's
		// deadlock-freedom argument).
		srvSpawnPool(vp, servers, total, st.lanes, st.replies)
		for c := 0; c < opt.Clients; c++ {
			vp.Spawn(func(cvp *core.VProc, _ core.Env) {
				latCollect(cvp, st, c, opt.Requests)
				st.arm(cvp, c, 0)
			})
		}
	})

	if len(st.served) != total {
		panic(fmt.Sprintf("workload: %d of %d requests never completed", total-len(st.served), total))
	}
	return LatencyResult{
		Result:    Result{ElapsedNs: elapsed, Check: st.check(), Stats: rt.TotalStats()},
		Requests:  total,
		Latencies: measureLatencies(rt, events, st.served),
	}
}

// recordGCEvents installs a tracer that appends every GC event to *events,
// chaining any tracer the caller installed (gctrace uses both at once); the
// returned func puts the caller's back.
func recordGCEvents(rt *core.Runtime, events *[]core.GCEvent) (restore func()) {
	prev := rt.Tracer()
	rt.SetTracer(func(ev core.GCEvent) {
		*events = append(*events, ev)
		if prev != nil {
			prev(ev)
		}
	})
	return func() { rt.SetTracer(prev) }
}

// measureLatencies measures the completed requests' lifetimes reqs (in any
// order) against the run's GC event timeline. Latencies run from scheduled
// arrival to reply. For the attribution, global collections stop the world,
// so their overlap with a request counts in full; local phases
// (minor/major/promotion) stall one vproc each, so their pooled overlap is
// normalized by the vproc count — the expected per-vproc collector activity
// during the request's lifetime.
//
// Under the mostly-concurrent collector the full cycle (EvGlobalEnd's span)
// is not a stall — mutators run through the mark. Only the two bracketing
// STW windows (snapshot and termination) stop the world, so they form the
// "global" stall set instead; the cycle spans are kept solely to count
// distinct collections per band. In STW mode the cycle IS the stall and no
// window events exist, so the sets coincide.
func measureLatencies(rt *core.Runtime, events []core.GCEvent, reqs []span) Latencies {
	var m Latencies
	for _, s := range reqs {
		m.Hist.Record(s.hi - s.lo)
	}
	m.P50, m.P90 = m.Hist.Quantile(50, 100), m.Hist.Quantile(90, 100)
	m.P99, m.P999 = m.Hist.Quantile(99, 100), m.Hist.Quantile(999, 1000)

	var globals, locals, cycles []span
	for _, ev := range events {
		switch s := (span{ev.At - ev.Ns, ev.At}); ev.Kind {
		case core.EvGlobalEnd:
			cycles = append(cycles, s)
			if !rt.Cfg.ConcurrentGlobal {
				globals = append(globals, s)
			}
		case core.EvSnapshot, core.EvTermination:
			globals = append(globals, s)
		case core.EvMinor, core.EvMajor, core.EvPromote:
			locals = append(locals, s)
		}
	}
	globalSet, cycleSet, localSet := newSpanSet(globals), newSpanSet(cycles), newSpanSet(locals)
	nv := int64(rt.Cfg.NumVProcs)

	band := func(minLat int64) AttributionBand {
		var b AttributionBand
		var latSum, gSum, lSum int64
		seenGlobals := map[span]bool{}
		for _, s := range reqs {
			lat := s.hi - s.lo
			if lat < minLat {
				continue
			}
			b.Count++
			latSum += lat
			g := globalSet.overlap(s.lo, s.hi, nil)
			// Collections are counted over the cycle spans, which in STW
			// mode are exactly the stall spans: a request "saw" a
			// collection if its lifetime intersects the cycle, whether or
			// not it intersected a concurrent cycle's STW windows.
			cycleSet.overlap(s.lo, s.hi, func(iv span) {
				if !seenGlobals[iv] {
					seenGlobals[iv] = true
					b.GlobalGCs++
				}
			})
			l := localSet.overlap(s.lo, s.hi, nil) / nv
			gSum += g
			lSum += l
			b.Global.MaxNs = max(b.Global.MaxNs, g)
			b.Local.MaxNs = max(b.Local.MaxNs, l)
		}
		if b.Count > 0 {
			b.MeanNs = latSum / int64(b.Count)
			b.Global.MeanNs = gSum / int64(b.Count)
			b.Local.MeanNs = lSum / int64(b.Count)
		}
		return b
	}
	m.All, m.Tail = band(0), band(m.P999)
	return m
}

// span is a half-open virtual-time interval [lo, hi).
type span struct{ lo, hi int64 }

// spanSet answers interval-overlap queries over a fixed set of spans, which
// may nest (a long major collection on one vproc straddles several minors on
// another). A total is a difference of prefix sums: the spans' length below x
// is F(x) = Σ_{lo<x}(x−lo) − Σ_{hi<x}(x−hi), so the overlap with [start, end)
// is F(end) − F(start), four binary searches over the sorted ends, exact in
// integers. Visiting the overlapping spans themselves scans them.
type spanSet struct {
	ivs          []span  // sorted by lo, then hi
	los, his     []int64 // the spans' ends, each sorted
	loSum, hiSum []int64 // loSum[i] = Σ los[:i], hiSum likewise
}

func newSpanSet(ivs []span) spanSet {
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].lo != ivs[b].lo {
			return ivs[a].lo < ivs[b].lo
		}
		return ivs[a].hi < ivs[b].hi
	})
	n := len(ivs)
	buf := make([]int64, 4*n+2)
	s := spanSet{ivs: ivs, los: buf[:n], his: buf[n : 2*n], loSum: buf[2*n : 3*n+1], hiSum: buf[3*n+1:]}
	for i, iv := range ivs {
		s.los[i], s.his[i] = iv.lo, iv.hi
	}
	slices.Sort(s.his)
	for i := range n {
		s.loSum[i+1] = s.loSum[i] + s.los[i]
		s.hiSum[i+1] = s.hiSum[i] + s.his[i]
	}
	return s
}

// below returns F(x), the spans' total length below x.
func (s spanSet) below(x int64) int64 {
	i, _ := slices.BinarySearch(s.los, x) // the spans starting below x
	j, _ := slices.BinarySearch(s.his, x) // the spans ending below x
	return int64(i)*x - s.loSum[i] - (int64(j)*x - s.hiSum[j])
}

// overlap sums the spans' overlap with [start, end); visit, when non-nil, is
// called once per overlapping span, in order.
func (s spanSet) overlap(start, end int64, visit func(span)) int64 {
	if visit == nil {
		if end <= start {
			return 0
		}
		return s.below(end) - s.below(start)
	}
	var sum int64
	for _, iv := range s.ivs {
		if iv.lo >= end {
			break
		}
		if lo, hi := max(iv.lo, start), min(iv.hi, end); hi > lo {
			sum += hi - lo
			visit(iv)
		}
	}
	return sum
}

// LatencySeq computes the expected reply checksum host-side; it is
// independent of the vproc count.
func LatencySeq(seed uint64, opt LatencyOptions) uint64 {
	var check uint64
	for c := 0; c < opt.Clients; c++ {
		rng := newRand(latClientSeed(seed, c))
		var acc uint64
		for r := 0; r < opt.Requests; r++ {
			rng.Next() // the gap draw; keeps the stream aligned with planOpenLoop
			_, words := srvRequestShape(rng)
			req := newRand(latReqSeed(seed, c, r))
			var sum uint64
			sum = fnv1a(sum, uint64(c))
			sum = fnv1a(sum, uint64(r))
			for i := 2; i < words; i++ {
				sum = fnv1a(sum, req.Next())
			}
			acc += fnv1a(fnv1a(0, uint64(r)), sum)
		}
		check = fnv1a(check, acc)
	}
	return check
}
