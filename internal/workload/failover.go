package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
)

// Failover harness: the open-loop serving workload under partial failure.
// The server pool is split into R replicas, each with its own bounded
// request lane tied (core.Channel.SetOwner) to a home vproc spread across
// the machine's boards — the lane IS the replica's failure domain. A
// FaultCrash of a home vproc retires its lane through the close-as-status
// protocol: queued requests are dropped, parked servers wake with nil
// messages, and every later send observes SendCrashed.
//
// Clients route around failure with three mechanisms, each independently
// observable in the result:
//
//   - Per-replica circuit breakers (closed → open on consecutive failures
//     or a crash status, open → half-open probe after a cooldown): attempts
//     skip open replicas instead of burning their deadline budget on a dead
//     lane.
//   - Deadline-budgeted retries: a failed attempt (reply timeout, full
//     lane after backoff, crashed lane) rotates to the next admitted
//     replica until the request's end-to-end deadline expires.
//   - Optional hedged requests: HedgeDelayNs after a first attempt is
//     accepted, an identical copy goes to a different replica; whichever
//     reply lands first resolves the request (payloads are identical, so
//     the checksum cannot depend on which).
//
// Lost versus recovered work (the crash-semantics contract, observable
// here): a request accepted by a replica that then crashes is RECOVERED —
// the client's attempt timeout fires and the retry completes on a
// survivor. Client-side continuations co-located with a crashed vproc are
// LOST — their open-loop chains die with it, and the termination watchdog
// (owned by vproc 0, which harness crash plans never target) classifies
// their unresolved requests as LostClient. The accounting is an exact
// partition: Offered = Completed + FailedDeadline + LostClient + ShedMemory.
//
// Termination needs no quota: every non-lost request provably resolves by
// its deadline plus one attempt timeout (each attempt either resolves,
// parks a reply handler whose timeout retries, or backs off — all progress
// in virtual time), and the watchdog sweeps the lost remainder at a fixed
// horizon. The last resolution closes the surviving lanes, waking the
// server pool for shutdown.
//
// Determinism: arrivals, payloads, and backoff jitter come from the same
// seeded streams as the overload harness; breakers and bookkeeping mutate
// only in engine-serialized task code. Reruns are bit-identical at any
// host worker count; with CrashNone the run executes zero crash-path code.
const (
	foClients  = 240 // logical clients at scale 1
	foRequests = 6   // requests per client at scale 1

	foMeanGapNs   = 400_000 // per-client inter-arrival gap
	foAttemptNs   = 60_000  // per-attempt reply timeout
	foLaneDepth   = 32      // bounded lane depth per replica
	foRetryBase   = 10_000  // first backoff after a full lane (doubles per attempt)
	foRetryCap    = 40_000  // backoff cap
	foBreakerTrip = 3       // consecutive failures that open a breaker
	foCooldownNs  = 100_000 // open → half-open probe delay

	foServiceNsPerWord = 300 // server-side compute per payload word

	FailoverDeadlineNs        = 300_000 // end-to-end deadline from scheduled arrival
	FailoverServersPerReplica = 4       // server continuation chains per lane
)

// CrashKind selects the fault injected by the failover harness.
type CrashKind int

const (
	// CrashNone: fault-free baseline (still replicated and routed).
	CrashNone CrashKind = iota
	// CrashVProc kills the last replica's home vproc at CrashNs.
	CrashVProc
	// CrashBoard kills every vproc on the first board that hosts a replica
	// home but not vproc 0 — the correlated rack failure domain. Requires a
	// topology with at least two boards.
	CrashBoard
)

// String names the kind (the CLI flag vocabulary).
func (k CrashKind) String() string {
	switch k {
	case CrashNone:
		return "none"
	case CrashVProc:
		return "vproc"
	case CrashBoard:
		return "board"
	}
	return fmt.Sprintf("CrashKind(%d)", int(k))
}

// ParseCrashKind parses a crash kind name.
func ParseCrashKind(s string) (CrashKind, error) {
	switch s {
	case "none":
		return CrashNone, nil
	case "vproc":
		return CrashVProc, nil
	case "board":
		return CrashBoard, nil
	}
	return 0, fmt.Errorf("workload: unknown crash kind %q (none, vproc, board)", s)
}

// FailoverOptions configures the harness.
type FailoverOptions struct {
	Clients   int   // logical clients
	Requests  int   // requests per client
	MeanGapNs int64 // mean per-client inter-arrival gap

	AttemptNs int64 // per-attempt reply timeout

	Replicas  int // replicated lanes (home vprocs spread over boards)
	LaneDepth int // bounded lane depth

	RetryCapNs int64 // full-lane backoff cap

	BreakerThreshold int // consecutive failures that open a breaker

	// HedgeDelayNs, when positive, sends an identical copy of an accepted
	// first attempt to a different replica after this delay (tail-latency
	// insurance that also masks a replica death without waiting for the
	// attempt timeout). 0 disables hedging.
	HedgeDelayNs int64

	Crash   CrashKind // fault to inject
	CrashNs int64     // crash instant (required for CrashVProc/CrashBoard)

	// Faults, when non-nil, is installed alongside the harness's own crash
	// plan (stalls, bursts — see core.FaultPlan).
	Faults *core.FaultPlan
}

// DefaultFailoverOptions scales the default shape.
func DefaultFailoverOptions(scale float64) FailoverOptions {
	return FailoverOptions{
		Clients:          scaled(foClients, scale),
		Requests:         scaled(foRequests, scale),
		MeanGapNs:        foMeanGapNs,
		AttemptNs:        foAttemptNs,
		Replicas:         2,
		LaneDepth:        foLaneDepth,
		RetryCapNs:       foRetryCap,
		BreakerThreshold: foBreakerTrip,
	}
}

// FailoverResult is one harness execution. Offered always equals
// Completed + FailedDeadline + LostClient + ShedMemory.
type FailoverResult struct {
	Result // makespan, checksum (rerun-stable), runtime stats

	Offered        int // planned requests
	Completed      int // served with a real reply
	GoodSLO        int // completed within FailoverDeadlineNs of the scheduled arrival
	FailedDeadline int // deadline expired before any replica replied
	LostClient     int // client-side chain died with a crashed vproc
	ShedMemory     int // request buffer allocation failed (bounded heaps)

	Retries      int64 // re-attempts (timeout, full-lane, reroute)
	Rerouted     int64 // attempts redirected off a crashed/closed lane
	Hedged       int64 // hedge copies sent
	HedgeWins    int64 // completions served by the hedge's target replica
	BreakerTrips int64 // closed/half-open → open transitions
	FastFails    int64 // attempt instants where every breaker was open
	LateReplies  int64 // replies that arrived after their request resolved

	Crashes int // vprocs killed by the harness's crash plan

	// Pre/post-crash split by scheduled arrival instant (all "post" when
	// CrashNone, whose CrashNs is 0): the degradation figure's numerator
	// and denominator, with the lost-client split telling co-located client
	// death apart from serving-side failure.
	OfferedPre, GoodPre, LostPre    int
	OfferedPost, GoodPost, LostPost int

	// WindowNs is the planned arrival horizon; HorizonNs the watchdog
	// deadline that bounds the makespan.
	WindowNs  int64
	HorizonNs int64

	Hist     Hist // completed-request latencies from scheduled arrival
	P50, P99 int64
}

// ServingGoodputPost returns the post-crash goodput numerator and
// denominator for requests whose clients survived to observe an outcome —
// the serving layer's failover figure of merit. (A dead client offers no
// load in a real system; the harness plans every arrival up front, so a
// dead client's requests land in LostPost instead of disappearing, and
// counting them against the serving layer would charge the fabric for
// clients it could never have answered.)
func (r FailoverResult) ServingGoodputPost() (num, den int) {
	return r.GoodPost, r.OfferedPost - r.LostPost
}

// Checksum outcome tags (distinct from the overload harness's: a failover
// run must not alias an overload run's fold).
const (
	foTagDeadline = 0xD1
	foTagLost     = 0x10
	foTagMemory   = 0x3B
)

// foBreaker is one replica's circuit breaker. States: closed (admit all),
// open (admit none until the cooldown), half-open (one probe in flight; its
// outcome closes or re-opens). A crashed lane pins the breaker open forever.
type foBreaker struct {
	state    int // 0 closed, 1 open, 2 half-open
	fails    int // consecutive failures while closed
	openedAt int64
	dead     bool
	trips    int64
}

// allow reports whether an attempt may target the replica now, advancing
// open → half-open when the cooldown has elapsed (the caller's attempt is
// the probe).
func (b *foBreaker) allow(now, cooldown int64) bool {
	switch b.state {
	case 0:
		return true
	case 1:
		if !b.dead && now >= b.openedAt+cooldown {
			b.state = 2
			return true
		}
		return false
	default: // half-open: the probe is in flight; admit nothing else
		return false
	}
}

// success records a served reply: the probe (or any closed-state success)
// resets the breaker. A dead breaker stays open — a straggler reply from a
// crashed replica (served before the crash, delivered after) is not
// evidence of life.
func (b *foBreaker) success() {
	if b.dead {
		return
	}
	b.state = 0
	b.fails = 0
}

// failure records a failed attempt (reply timeout, lane still full after
// the retry budget): a half-open probe re-opens immediately, a closed
// breaker opens at the threshold.
func (b *foBreaker) failure(now int64, threshold int) {
	b.fails++
	if b.state == 2 || (b.state == 0 && b.fails >= threshold) {
		b.state = 1
		b.openedAt = now
		b.trips++
	}
}

// trip pins the breaker open: the lane reported SendCrashed/SendClosed, so
// no probe can ever succeed.
func (b *foBreaker) trip(now int64) {
	if b.state != 1 {
		b.trips++
	}
	b.state = 1
	b.openedAt = now
	b.dead = true
}

// foState is the harness's host-side bookkeeping; all mutation happens in
// engine-serialized task code.
type foState struct {
	openPlan // acc folds each request's resolution
	opt      FailoverOptions

	done    [][]bool // request resolved exactly-once guard
	hedgeTo [][]int  // hedge target replica per request, -1 if none sent

	homes    []int // replica home vproc IDs
	lanes    []*core.Channel
	replies  [][]*core.Channel // one reply channel per request
	breakers []foBreaker

	unresolved int
	res        FailoverResult // the resolution ledger, counted in place
}

// foPlan draws the offered load (the shared open-loop plan, so a failover
// point's offered load matches an overload point's at equal options) and the
// per-request routing state.
func foPlan(seed uint64, opt FailoverOptions) *foState {
	st := &foState{
		openPlan:   planOpenLoop(seed, opt.Clients, opt.Requests, opt.MeanGapNs),
		opt:        opt,
		unresolved: opt.Clients * opt.Requests,
	}
	st.done = make([][]bool, opt.Clients)
	st.hedgeTo = make([][]int, opt.Clients)
	for c := range st.done {
		st.done[c] = make([]bool, opt.Requests)
		st.hedgeTo[c] = make([]int, opt.Requests)
		for r := range st.hedgeTo[c] {
			st.hedgeTo[c][r] = -1
		}
	}
	return st
}

// deadline is request (c, r)'s absolute deadline.
func (st *foState) deadline(c, r int) int64 {
	return st.arrival[c][r] + FailoverDeadlineNs
}

// foHomes spreads the replica home vprocs round-robin over the machine's
// boards, skipping vproc 0 (the coordinator that owns the termination
// watchdog must survive every harness crash plan). Deterministic in the
// runtime's placement.
func foHomes(rt *core.Runtime, replicas int) []int {
	topo := rt.Cfg.Topo
	byBoard := make([][]int, topo.Boards())
	for _, vp := range rt.VProcs {
		if vp.ID == 0 {
			continue
		}
		b := topo.BoardOfNode(vp.Node)
		byBoard[b] = append(byBoard[b], vp.ID)
	}
	homes := make([]int, replicas)
	cnt := make([]int, len(byBoard))
	b := 0
	for i := range homes {
		for len(byBoard[b%len(byBoard)]) == 0 {
			b++
		}
		g := byBoard[b%len(byBoard)]
		homes[i] = g[cnt[b%len(byBoard)]%len(g)]
		cnt[b%len(byBoard)]++
		b++
	}
	return homes
}

// resolve retires request (c, r) exactly once: the reply channel closes (a
// straggler reply or hedge handler finds it dead), and the last resolution
// closes every surviving lane, releasing the server pool.
func (st *foState) resolve(c, r int) {
	st.done[c][r] = true
	st.replies[c][r].Close()
	st.unresolved--
	if st.unresolved == 0 {
		for _, lane := range st.lanes {
			if !lane.Closed() {
				lane.Close()
			}
		}
	}
}

// foPickReplica returns the first replica from the request's deterministic
// rotation whose breaker admits an attempt now, or -1 if every breaker is
// open. The rotation start varies by (client, attempt) so retries change
// replica and clients spread over the pool.
func foPickReplica(st *foState, now int64, c, attempt int) int {
	n := len(st.lanes)
	start := (c + attempt) % n
	for i := 0; i < n; i++ {
		rep := (start + i) % n
		if st.breakers[rep].allow(now, foCooldownNs) {
			return rep
		}
	}
	return -1
}

// foAttempt makes one routing attempt for request (c, r). Payload layout:
// [client, seq, noise...] — identical across attempts and hedges, so the
// reply checksum is independent of which replica serves it.
func foAttempt(vp *core.VProc, st *foState, c, r, attempt int) {
	if st.done[c][r] {
		return
	}
	now := vp.Now()
	if now >= st.deadline(c, r) {
		st.res.FailedDeadline++
		st.acc[c] += fnv1a(fnv1a(foTagDeadline, uint64(r)), uint64(attempt))
		st.resolve(c, r)
		return
	}
	rep := foPickReplica(st, now, c, attempt)
	if rep < 0 {
		// Every breaker is open: fail fast, then re-probe after the
		// shortest interval that can change the answer.
		st.res.FastFails++
		st.res.Retries++
		vp.AfterThen(st.backoffNs(c, r, attempt+1, foRetryBase, st.opt.RetryCapNs), nil, func(vp *core.VProc, _ core.Env) {
			foAttempt(vp, st, c, r, attempt+1)
		})
		return
	}
	if !foSend(vp, st, c, r, attempt, rep) {
		return
	}
	foAwaitReply(vp, st, c, r, attempt, rep)
	if st.opt.HedgeDelayNs > 0 && attempt == 0 {
		vp.AfterThen(st.opt.HedgeDelayNs, nil, func(vp *core.VProc, _ core.Env) {
			foHedge(vp, st, c, r, rep)
		})
	}
}

// foSend builds the request buffer and offers it to replica rep's lane,
// handling every admission outcome. Reports whether the request is now in
// flight (a reply handler should park); false means the attempt already
// rerouted, backed off, or resolved.
func foSend(vp *core.VProc, st *foState, c, r, attempt, rep int) bool {
	status, ok := offerRaw(vp, st.lanes[rep], st.payload(c, r, 2))
	if !ok {
		st.res.ShedMemory++
		st.acc[c] += fnv1a(fnv1a(foTagMemory, uint64(r)), uint64(attempt))
		st.resolve(c, r)
		return false
	}
	switch status {
	case core.SendOK:
		return true
	case core.SendFull:
		st.breakers[rep].failure(vp.Now(), st.opt.BreakerThreshold)
		st.res.Retries++
		vp.AfterThen(st.backoffNs(c, r, attempt+1, foRetryBase, st.opt.RetryCapNs), nil, func(vp *core.VProc, _ core.Env) {
			foAttempt(vp, st, c, r, attempt+1)
		})
	case core.SendCrashed, core.SendClosed:
		// The replica is dead: pin its breaker and reroute immediately —
		// a dead lane costs no backoff.
		st.breakers[rep].trip(vp.Now())
		st.res.Rerouted++
		st.res.Retries++
		foAttempt(vp, st, c, r, attempt+1)
	}
	return false
}

// foAwaitReply parks a reply handler with the per-attempt timeout. A
// timeout records a breaker failure (the replica accepted and went dark —
// crashed mid-service, or hopelessly backlogged) and retries; a reply
// resolves the request unless a racing path already did.
//
// The reply channel is per-request, not per-attempt: when copies are in
// flight (a hedge, or a retry racing a straggler), whichever reply arrives
// first is delivered to the earliest parked handler — so attribution comes
// from the reply itself, which carries the serving replica's index.
func foAwaitReply(vp *core.VProc, st *foState, c, r, attempt, rep int) {
	st.replies[c][r].RecvThenTimeout(vp, st.opt.AttemptNs, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr, ok bool) {
		if st.done[c][r] {
			if ok && msg != 0 {
				st.res.LateReplies++
			}
			return
		}
		if !ok {
			// Timeout. The request may still be served later (the reply
			// channel stays open until resolution) — a straggler reply
			// can win against the retry, never double-resolve.
			st.breakers[rep].failure(vp.Now(), st.opt.BreakerThreshold)
			st.res.Retries++
			foAttempt(vp, st, c, r, attempt+1)
			return
		}
		if msg == 0 {
			// The reply channel was closed by a racing resolution whose
			// done-flag write this callback ordered after; nothing to do.
			return
		}
		p := vp.ReadBlock(msg)
		servedBy := int(p[2])
		st.breakers[servedBy].success()
		lat := vp.Now() - st.arrival[c][r]
		st.res.Hist.Record(lat)
		st.res.Completed++
		good := lat <= FailoverDeadlineNs
		if good {
			st.res.GoodSLO++
		}
		if st.arrival[c][r] < st.opt.CrashNs {
			if good {
				st.res.GoodPre++
			}
		} else if good {
			st.res.GoodPost++
		}
		if st.hedgeTo[c][r] == servedBy {
			st.res.HedgeWins++
		}
		st.acc[c] += fnv1a(fnv1a(0, uint64(r)), p[1])
		st.resolve(c, r)
	})
}

// foHedge sends the identical request copy to a different replica than the
// primary attempt used. Unlike a retry it does not reroute or back off: the
// primary is still in flight, the hedge is pure insurance.
func foHedge(vp *core.VProc, st *foState, c, r, primary int) {
	if st.done[c][r] {
		return
	}
	now := vp.Now()
	n := len(st.lanes)
	rep := -1
	for i := 1; i < n; i++ {
		cand := (primary + i) % n
		if st.breakers[cand].allow(now, foCooldownNs) {
			rep = cand
			break
		}
	}
	if rep < 0 {
		return
	}
	status, ok := offerRaw(vp, st.lanes[rep], st.payload(c, r, 2))
	if !ok {
		return // the primary attempt still carries the request
	}
	if status != core.SendOK {
		if status == core.SendCrashed || status == core.SendClosed {
			st.breakers[rep].trip(vp.Now())
		}
		return
	}
	st.res.Hedged++
	st.hedgeTo[c][r] = rep
	foAwaitReply(vp, st, c, r, 0, rep)
}

// foServe is one server chain of replica rep: receive from the lane,
// service, reply to the request's own channel, re-park. A nil message is
// the lane dying — orderly shutdown or the home vproc's crash — either way
// the chain exits.
func foServe(vp *core.VProc, st *foState, rep int) {
	st.lanes[rep].RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
		if msg == 0 {
			return
		}
		c, r, sum := serveRequest(vp, msg, foServiceNsPerWord)
		if sendRaw(vp, st.replies[c][r], []uint64{r, sum, uint64(rep)}) != core.SendOK {
			// The request resolved (deadline, hedge win, watchdog) while
			// this reply was being computed; the work is discarded.
			st.res.LateReplies++
		}
		foServe(vp, st, rep)
	})
}

// foCrashPlan builds the harness's crash plan (nil for CrashNone) against the
// resolved homes, validating that the fault can never take the coordinator
// down.
func foCrashPlan(rt *core.Runtime, st *foState) *core.FaultPlan {
	opt := st.opt
	switch opt.Crash {
	case CrashNone:
		return nil
	case CrashVProc:
		target := st.homes[len(st.homes)-1]
		return (&core.FaultPlan{}).CrashAt(target, opt.CrashNs)
	case CrashBoard:
		topo := rt.Cfg.Topo
		if topo.Boards() < 2 {
			panic(fmt.Sprintf("workload: CrashBoard on single-board topology %s", topo.Name))
		}
		keep := topo.BoardOfNode(rt.VProcs[0].Node)
		for _, home := range st.homes {
			if b := topo.BoardOfNode(rt.VProcs[home].Node); b != keep {
				return (&core.FaultPlan{}).CrashBoardAt(b, opt.CrashNs)
			}
		}
		panic(fmt.Sprintf("workload: CrashBoard found no replica home off the coordinator's board: it needs Replicas >= 2 (got %d) and a vproc on another board, which sparse placement reaches only once the coordinator's board is full (got %d vprocs)",
			opt.Replicas, rt.Cfg.NumVProcs))
	}
	panic(fmt.Sprintf("workload: unknown crash kind %d", int(opt.Crash)))
}

// RunFailover executes the harness. The virtual results are deterministic —
// bit-identical across reruns at any host-side worker count.
func RunFailover(rt *core.Runtime, opt FailoverOptions) FailoverResult {
	if opt.Clients < 1 || opt.Requests < 1 || opt.MeanGapNs < 2 {
		panic(fmt.Sprintf("workload: bad failover options %+v", opt))
	}
	if opt.AttemptNs < 1 || opt.AttemptNs > FailoverDeadlineNs {
		panic(fmt.Sprintf("workload: failover needs 1 <= AttemptNs <= %d, got %d", FailoverDeadlineNs, opt.AttemptNs))
	}
	if opt.Replicas < 1 || opt.LaneDepth < 1 {
		panic(fmt.Sprintf("workload: bad failover pool shape %+v", opt))
	}
	if opt.RetryCapNs < foRetryBase {
		panic(fmt.Sprintf("workload: failover RetryCapNs %d below the first backoff %d", opt.RetryCapNs, foRetryBase))
	}
	if opt.BreakerThreshold < 1 {
		panic(fmt.Sprintf("workload: BreakerThreshold %d must be >= 1", opt.BreakerThreshold))
	}
	if opt.HedgeDelayNs < 0 {
		panic(fmt.Sprintf("workload: negative hedge delay %d", opt.HedgeDelayNs))
	}
	if opt.Crash != CrashNone && opt.CrashNs < 1 {
		panic(fmt.Sprintf("workload: crash kind %v needs CrashNs >= 1", opt.Crash))
	}
	if opt.Crash == CrashNone && opt.CrashNs != 0 {
		panic("workload: CrashNs set without a crash kind")
	}
	if rt.Cfg.NumVProcs < 2 {
		panic("workload: failover needs at least 2 vprocs (vproc 0 is the never-crashed coordinator)")
	}

	st := foPlan(rt.Cfg.Seed, opt)
	st.homes = foHomes(rt, opt.Replicas)
	st.lanes = make([]*core.Channel, opt.Replicas)
	st.breakers = make([]foBreaker, opt.Replicas)
	for i := range st.lanes {
		st.lanes[i] = rt.NewMailbox(opt.LaneDepth)
		st.lanes[i].SetOwner(rt.VProcs[st.homes[i]])
	}
	st.replies = make([][]*core.Channel, opt.Clients)
	for c := range st.replies {
		st.replies[c] = make([]*core.Channel, opt.Requests)
		for r := range st.replies[c] {
			st.replies[c][r] = rt.NewChannel()
		}
	}

	installFaults(rt, opt.Faults, foCrashPlan(rt, st))

	// The watchdog horizon bounds every resolution path: the last scheduled
	// arrival, plus its full deadline budget, plus one attempt timeout (a
	// handler parked just before the deadline), plus slack for the final
	// callback's own charges.
	st.res.WindowNs = st.windowNs()
	st.res.HorizonNs = st.res.WindowNs + FailoverDeadlineNs + opt.AttemptNs + 20_000

	st.send = func(vp *core.VProc, c, r int) { foAttempt(vp, st, c, r, 0) }
	elapsed := rt.Run(func(vp *core.VProc) {
		// Termination watchdog, owned by vproc 0 (never a crash target):
		// classifies requests whose client chains died with a crashed vproc
		// and closes the lanes so the server pool drains. With no crash it
		// finds nothing unresolved and only pins the makespan to the horizon.
		vp.AtThen(st.res.HorizonNs, nil, func(vp *core.VProc, _ core.Env) {
			for c := 0; c < opt.Clients; c++ {
				for r := 0; r < opt.Requests; r++ {
					if !st.done[c][r] {
						st.res.LostClient++
						if st.arrival[c][r] < st.opt.CrashNs {
							st.res.LostPre++
						} else {
							st.res.LostPost++
						}
						st.acc[c] += fnv1a(fnv1a(foTagLost, uint64(c)), uint64(r))
						st.resolve(c, r)
					}
				}
			}
		})
		for rep := 0; rep < opt.Replicas; rep++ {
			for s := 0; s < FailoverServersPerReplica; s++ {
				rep := rep
				vp.Spawn(func(svp *core.VProc, _ core.Env) {
					foServe(svp, st, rep)
				})
			}
		}
		for c := 0; c < opt.Clients; c++ {
			c := c
			vp.Spawn(func(cvp *core.VProc, _ core.Env) {
				// The chain is owned by whichever vproc runs this spawn task;
				// if it crashes, the chain's remaining requests are lost —
				// the co-located-client loss the watchdog classifies.
				st.arm(cvp, c, 0)
			})
		}
	})

	res := st.res
	res.Result = Result{ElapsedNs: elapsed, Check: st.check(), Stats: rt.TotalStats()}
	res.Offered = opt.Clients * opt.Requests
	res.Crashes = res.Stats.Crashes
	for _, b := range st.breakers {
		res.BreakerTrips += b.trips
	}
	for c := range st.arrival {
		for _, t := range st.arrival[c] {
			if t < opt.CrashNs {
				res.OfferedPre++
			} else {
				res.OfferedPost++
			}
		}
	}
	res.P50 = res.Hist.Quantile(50, 100)
	res.P99 = res.Hist.Quantile(99, 100)
	if got := res.Completed + res.FailedDeadline + res.LostClient + res.ShedMemory; got != res.Offered {
		panic(fmt.Sprintf("workload: failover accounting leak: %d resolved of %d offered", got, res.Offered))
	}
	return res
}

// RunFailoverSpec adapts the harness to the benchmark-suite Spec interface:
// the registry entry exercises replicated routing under a single-vproc
// crash, so the generic determinism and span-parallel gates cover the crash
// subsystem end to end.
func RunFailoverSpec(rt *core.Runtime, scale float64) Result {
	opt := DefaultFailoverOptions(scale)
	opt.Crash = CrashVProc
	opt.CrashNs = opt.MeanGapNs * int64(opt.Requests) / 2
	return RunFailover(rt, opt).Result
}
