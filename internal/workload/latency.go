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
// vprocs: each client is a timer-driven send chain (latArm) plus a reply
// collection chain (latCollector), so no client occupies a stack frame and
// any vproc can carry any client's next step. Requests flow over two request
// lanes, small and large, to a pool of server chains with fixed quotas
// (latServer), and every reply records a completion instant. The chains are
// step continuations (core.StepCont), which idle vprocs run on the engine's
// inline-step path.
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
	served   []span           // completed requests' lifetimes, scheduled arrival to reply
	lanes    [2]*core.Channel // request lanes, indexed by openPlan.lane
	srvLanes []*core.Channel  // the lanes in a server's select order: large first
	replies  []*core.Channel
}

// latChains starts a run's continuation chains from its entry task: the pool
// of servers server chains (quotas summing to total) and, per client, its
// reply collection chain and its arrival chain. RunLatency's are the step
// machines below; the direct-style reference sits beside the tests.
type latChains func(vp *core.VProc, st *latState, servers, total int)

// RunLatency executes the open-loop harness on rt and post-processes the
// recorded instants into percentiles and pause attribution. The virtual
// results are deterministic: bit-identical across reruns and across any
// host-side worker count.
func RunLatency(rt *core.Runtime, opt LatencyOptions) LatencyResult {
	return runLatency(rt, opt, latStepChains)
}

func runLatency(rt *core.Runtime, opt LatencyOptions, chains latChains) LatencyResult {
	if err := opt.Validate(rt.Cfg.NumVProcs); err != nil {
		panic(err.Error())
	}
	total := opt.Clients * opt.Requests
	st := &latState{openPlan: planOpenLoop(rt.Cfg.Seed, opt.Clients, opt.Requests, opt.MeanGapNs), served: make([]span, 0, total)}
	st.lanes = [2]*core.Channel{rt.NewChannel(), rt.NewChannel()}
	st.srvLanes = []*core.Channel{st.lanes[1], st.lanes[0]}
	st.replies = make([]*core.Channel, opt.Clients)
	for i := range st.replies {
		st.replies[i] = rt.NewChannel()
	}

	// Record the GC event timeline for attribution.
	var gc gcSpans
	defer gc.record(rt)()

	servers := min(rt.Cfg.NumVProcs, opt.Clients)
	elapsed := rt.Run(func(vp *core.VProc) {
		// Fixed quotas summing to the request total: every request is
		// answered and every chain terminates (the server workload's
		// deadlock-freedom argument).
		chains(vp, st, servers, total)
	})

	if len(st.served) != total {
		panic(fmt.Sprintf("workload: %d of %d requests never completed", total-len(st.served), total))
	}
	return LatencyResult{
		Result:    Result{ElapsedNs: elapsed, Check: st.check(), Stats: rt.TotalStats()},
		Requests:  total,
		Latencies: measureLatencies(rt, &gc, st.served),
	}
}

// latStepChains starts the chains as step continuations (core.StepCont),
// each a machine allocated once per run whose turns are the segments of its
// direct-style twin between two charges: a vproc's idle sweep runs them as
// its own turns, so serving a request costs the engine inline turns instead
// of token handoffs. The chains start from direct-style tasks, one
// registration each.
func latStepChains(vp *core.VProc, st *latState, servers, total int) {
	base, extra := total/servers, total%servers
	pool := make([]latServer, servers)
	for s := range pool {
		pool[s] = latServer{st: st, quota: base}
		if s < extra {
			pool[s].quota++
		}
		vp.Spawn(func(svp *core.VProc, _ core.Env) { svp.SelectSteps(st.srvLanes, &pool[s]) })
	}
	clients := len(st.replies)
	arms, collectors := make([]latArm, clients), make([]latCollector, clients)
	for c := range clients {
		arms[c] = latArm{st: st, c: c}
		collectors[c] = latCollector{st: st, c: c, remaining: len(st.arrival[c]), reply: [1]*core.Channel{st.replies[c]}}
		vp.Spawn(func(cvp *core.VProc, _ core.Env) {
			cvp.SelectSteps(collectors[c].reply[:], &collectors[c])
			cvp.AtSteps(st.arrival[c][0], &arms[c])
		})
	}
}

// sendPhase is where a chain stands in its sendRaw.
type sendPhase int8

const (
	sendAlloc   sendPhase = iota // the message's allocation
	sendRoot                     // allocated, its charge landed: root it and send
	sendSending                  // the send
	sendSent
)

// rawSend is sendRaw in step form, for a chain that sends words on ch: the
// allocation's cost form, then core.SendOp, the message rooted across the
// send.
type rawSend struct {
	phase sendPhase
	a     heap.Addr // the message, between its allocation and its rooting
	op    core.SendOp
}

// step runs the send's next segment; words is the message (read only by the
// allocation), ch its channel.
func (s *rawSend) step(vp *core.VProc, ch *core.Channel, words []uint64) (int64, core.StepStatus) {
	for {
		switch s.phase {
		case sendAlloc:
			a, c, ok := vp.CostAllocRaw(words)
			if !ok {
				return 0, core.StepDecline
			}
			s.a, s.phase = a, sendRoot
			return c, core.StepCharge
		case sendRoot:
			s.op.Begin(ch, vp.PushRoot(s.a))
			s.phase = sendSending
		case sendSending:
			d, st := s.op.Step(vp)
			if st != core.StepDone {
				return d, st
			}
			vp.PopRoots(1)
			s.phase = sendSent
		case sendSent:
			return 0, core.StepDone
		}
	}
}

// direct performs the operation step declined.
func (s *rawSend) direct(vp *core.VProc, ch *core.Channel, words []uint64) {
	if s.phase == sendAlloc {
		s.a, s.phase = vp.AllocRaw(words), sendRoot
		return
	}
	s.op.Direct(vp)
	vp.PopRoots(1)
	s.phase = sendSent
}

// latArm is a client's arrival chain in step form: at each planned arrival
// instant, send the request on its lane, then arm the next arrival.
type latArm struct {
	st   *latState
	c, r int
	send rawSend
}

func (m *latArm) Start(*core.VProc, int, heap.Addr) { m.send = rawSend{} }

func (m *latArm) Step(vp *core.VProc) (int64, core.StepStatus) {
	if d, s := m.send.step(vp, m.lane(), m.words(vp)); s != core.StepDone {
		return d, s
	}
	if m.r++; m.r < len(m.st.arrival[m.c]) {
		vp.AtSteps(m.st.arrival[m.c][m.r], m)
	}
	return 0, core.StepDone
}

func (m *latArm) Direct(vp *core.VProc) { m.send.direct(vp, m.lane(), m.words(vp)) }

func (m *latArm) lane() *core.Channel { return m.st.lanes[m.st.lane[m.c][m.r]] }

// words is the request's payload, built only where the allocation reads it.
func (m *latArm) words(vp *core.VProc) []uint64 {
	if m.send.phase != sendAlloc {
		return nil
	}
	return m.st.payload(vp, m.c, m.r, 2)
}

// latServer is one server chain in step form: read and fold the request,
// reply to its client, and select the next request until the quota is spent.
type latServer struct {
	st     *latState
	quota  int
	read   bool // the request's read is charged
	msg    heap.Addr
	client uint64
	reply  [2]uint64 // seq, sum
	send   rawSend
	sel    core.SelectOp
	sent   bool
}

func (m *latServer) Start(_ *core.VProc, _ int, msg heap.Addr) {
	m.msg, m.read, m.sent, m.send = msg, false, false, rawSend{}
}

func (m *latServer) Step(vp *core.VProc) (int64, core.StepStatus) {
	if !m.read {
		// serveRequest in cost form. Nothing writes a received request, so
		// folding it before its read's charge lands reads the words the
		// direct form reads after it.
		p, c := vp.CostReadBlock(m.msg, int64(vp.ObjectLen(m.msg))*srvComputePerWordNs)
		var sum uint64
		for _, w := range p {
			sum = fnv1a(sum, w)
		}
		m.client, m.reply = p[0], [2]uint64{p[1], sum}
		m.read = true
		return c, core.StepCharge
	}
	if !m.sent {
		if d, s := m.send.step(vp, m.st.replies[m.client], m.reply[:]); s != core.StepDone {
			return d, s
		}
		m.sent = true
		if m.quota--; m.quota == 0 {
			return 0, core.StepDone
		}
		m.sel.Begin(vp, m.st.srvLanes, m)
	}
	return m.sel.Step(vp)
}

func (m *latServer) Direct(vp *core.VProc) { m.send.direct(vp, m.st.replies[m.client], m.reply[:]) }

// latCollector is a client's reply collection chain in step form: read the
// reply, record its request's lifetime, fold it, and re-park for the next.
// The fold is commutative (replies may interleave in any deterministic order
// without changing the checksum).
type latCollector struct {
	st        *latState
	c         int
	remaining int
	reply     [1]*core.Channel
	msg       heap.Addr
	read      bool // the reply's read is charged
	seq, sum  uint64
	sel       core.SelectOp
}

func (m *latCollector) Start(_ *core.VProc, _ int, msg heap.Addr) { m.msg, m.read = msg, false }

func (m *latCollector) Step(vp *core.VProc) (int64, core.StepStatus) {
	if !m.read {
		p, c := vp.CostReadBlock(m.msg, 0)
		m.seq, m.sum, m.read = p[0], p[1], true
		return c, core.StepCharge
	}
	if m.msg != 0 {
		// The read's charge has landed: the reply arrived now.
		st := m.st
		st.served = append(st.served, span{st.arrival[m.c][m.seq], vp.Now()})
		st.acc[m.c] += fnv1a(fnv1a(0, m.seq), m.sum)
		m.msg = 0
		if m.remaining--; m.remaining == 0 {
			return 0, core.StepDone
		}
		m.sel.Begin(vp, m.reply[:], m)
	}
	return m.sel.Step(vp)
}

func (m *latCollector) Direct(*core.VProc) {
	panic("workload: the reply collector has no cost form to decline")
}

// gcSpans is the GC event timeline a harness's latencies are attributed
// against, kept as the three span lists measureLatencies reads: global
// stalls, local phases, and global cycles. Under the mostly-concurrent
// collector the full cycle (EvGlobalEnd's span) is not a stall — mutators run
// through the mark — so only the two bracketing STW windows (snapshot and
// termination) are global stalls, and the cycles only count distinct
// collections per band. In STW mode the cycle IS the stall and no window
// events exist, so the two lists coincide.
type gcSpans struct {
	globals, cycles []span
	// localLos and localHis are the local phases' ends: their attribution
	// is a pooled total (spanTotals), which needs the ends and not the
	// spans.
	localLos, localHis []int64
}

// record installs a tracer that folds every GC event into s, chaining any
// tracer the caller installed (gctrace uses both at once); the returned
// func puts the caller's back.
func (s *gcSpans) record(rt *core.Runtime) (restore func()) {
	prev := rt.Tracer()
	concurrent := rt.Cfg.ConcurrentGlobal
	rt.SetTracer(func(ev core.GCEvent) {
		switch iv := (span{ev.At - ev.Ns, ev.At}); ev.Kind {
		case core.EvGlobalEnd:
			s.cycles = append(s.cycles, iv)
			if !concurrent {
				s.globals = append(s.globals, iv)
			}
		case core.EvSnapshot, core.EvTermination:
			s.globals = append(s.globals, iv)
		case core.EvMinor, core.EvMajor, core.EvPromote:
			s.localLos, s.localHis = append(s.localLos, iv.lo), append(s.localHis, iv.hi)
		}
		if prev != nil {
			prev(ev)
		}
	})
	return func() { rt.SetTracer(prev) }
}

// measureLatencies measures the completed requests' lifetimes reqs (in any
// order) against the run's GC timeline gc. Latencies run from scheduled
// arrival to reply. For the attribution, global stalls stop the world, so
// their overlap with a request counts in full; local phases
// (minor/major/promotion) stall one vproc each, so their pooled overlap is
// normalized by the vproc count — the expected per-vproc collector activity
// during the request's lifetime.
func measureLatencies(rt *core.Runtime, gc *gcSpans, reqs []span) Latencies {
	var m Latencies
	for _, s := range reqs {
		m.Hist.Record(s.hi - s.lo)
	}
	m.P50, m.P90 = m.Hist.Quantile(50, 100), m.Hist.Quantile(90, 100)
	m.P99, m.P999 = m.Hist.Quantile(99, 100), m.Hist.Quantile(999, 1000)

	globalSet, cycleSet := newSpanSet(gc.globals), newSpanSet(gc.cycles)
	localSet := newSpanTotals(gc.localLos, gc.localHis)
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
			l := localSet.overlap(s.lo, s.hi) / nv
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
// another): totals through spanTotals, and visits by scanning the spans.
type spanSet struct {
	ivs    []span // sorted by lo, then hi
	totals spanTotals
}

func newSpanSet(ivs []span) spanSet {
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].lo != ivs[b].lo {
			return ivs[a].lo < ivs[b].lo
		}
		return ivs[a].hi < ivs[b].hi
	})
	ends := make([]int64, 2*len(ivs))
	los, his := ends[:len(ivs)], ends[len(ivs):]
	for i, iv := range ivs {
		los[i], his[i] = iv.lo, iv.hi
	}
	return spanSet{ivs: ivs, totals: newSpanTotals(los, his)}
}

// overlap sums the spans' overlap with [start, end); visit, when non-nil, is
// called once per overlapping span, in order.
func (s spanSet) overlap(start, end int64, visit func(span)) int64 {
	if visit == nil {
		return s.totals.overlap(start, end)
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

// spanTotals answers interval-overlap totals over a fixed set of spans kept
// as their two ends, los[i] and his[i] one span's. A total is a difference of
// prefix sums: the spans' length below x is F(x) = Σ_{lo<x}(x−lo) −
// Σ_{hi<x}(x−hi), so the overlap with [start, end) is F(end) − F(start),
// four binary searches over the sorted ends, exact in integers. Neither sum
// pairs a start with its end, so each list is sorted on its own, in place.
type spanTotals struct {
	los, his     []int64 // the spans' ends, each sorted
	loSum, hiSum []int64 // loSum[i] = Σ los[:i], hiSum likewise
}

// newSpanTotals sorts los and his in place and builds their prefix sums.
func newSpanTotals(los, his []int64) spanTotals {
	slices.Sort(los)
	slices.Sort(his)
	n := len(los)
	sums := make([]int64, 2*n+2)
	s := spanTotals{los: los, his: his, loSum: sums[:n+1], hiSum: sums[n+1:]}
	for i := range n {
		s.loSum[i+1] = s.loSum[i] + los[i]
		s.hiSum[i+1] = s.hiSum[i] + his[i]
	}
	return s
}

// below returns F(x), the spans' total length below x.
func (s spanTotals) below(x int64) int64 {
	i, _ := slices.BinarySearch(s.los, x) // the spans starting below x
	j, _ := slices.BinarySearch(s.his, x) // the spans ending below x
	return int64(i)*x - s.loSum[i] - (int64(j)*x - s.hiSum[j])
}

// overlap sums the spans' overlap with [start, end).
func (s spanTotals) overlap(start, end int64) int64 {
	if end <= start {
		return 0
	}
	return s.below(end) - s.below(start)
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
