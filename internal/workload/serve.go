package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// Serving harness: the open-loop client engine behind the overload,
// memory-pressure and failover figures. Requests arrive on a planned
// schedule (openloop.go) and flow through Replicas request lanes, each tied
// (core.Channel.SetOwner) to a home vproc spread over the machine's boards,
// so a lane is its replica's failure domain. Latency is measured from the
// *scheduled* arrival, and each completed request's lifetime is intersected
// with the GC event timeline to attribute its latency to collection phases
// (measureLatencies, shared with the latency harness). The configuration
// decides which mechanisms take part:
//
//   - Admission: what a full lane or a full heap means — queue forever on
//     unbounded lanes (AdmitNone), shed at admission with capped, jittered
//     backoff retries (AdmitQueue), additionally nack server-side once a
//     deadline is unmeetable (AdmitDeadline), or additionally shed at
//     admission above a heap-occupancy watermark (AdmitMemory).
//   - Routing: with more than one replica, or a crash planned, every attempt
//     awaits its reply under a per-attempt timeout, and per-replica circuit
//     breakers steer attempts off dead and dark lanes. Optional hedged
//     requests (Dean & Barroso, "The Tail at Scale", CACM 2013) send an
//     identical copy to a second replica after HedgeDelayNs.
//   - Crashes: CrashVProc kills the last replica's home, CrashBoard every
//     vproc on a board hosting a replica home but not vproc 0. A planned
//     crash arms the termination watchdog.
//
// With one replica and no crash, no breaker, hedge or watchdog code runs;
// with AdmitNone besides every request is served and completes, so the
// checksum depends on request contents alone.
//
// One protocol for every configuration: each request has its own reply
// channel, closed when the request resolves; each attempt is offer → await
// → resolve, with one backoff rule and one give-up rule (retry); one
// server chain serves every lane; and one exactly-once ledger records each
// request's resolution — completed, expired (server nack), shed (retry
// budget, fault close, memory), deadline-failed, or lost with its client's
// crashed vproc. Whether a completion met the SLO is counted at reply time,
// from its latency.
//
// Termination: the last resolution closes every surviving lane, waking the
// parked server chains with nil messages. A request whose client chain died
// with a crashed vproc never resolves by itself; the watchdog, owned by
// vproc 0 (which no harness crash plan targets), classifies it as
// LostClient at a horizon past every other resolution path.
//
// Determinism: arrivals, payloads and backoff jitter come from seeded
// per-client/per-request streams; breakers and bookkeeping mutate only in
// engine-serialized task code. Reruns are bit-identical at any -j and
// -par. The checksum is not vproc-count-invariant in general: which
// requests shed or reroute depends on queue depth at each instant.
const (
	serveClients   = 300     // logical clients at scale 1
	serveRequests  = 6       // requests per client at scale 1
	serveMeanGapNs = 400_000 // default per-client inter-arrival gap

	serveLaneDepth   = 16      // bounded lane depth (every policy but AdmitNone)
	serveMaxRetries  = 3       // re-attempts after the first, whatever failed
	serveRetryBaseNs = 10_000  // first backoff (doubles per attempt)
	serveRetryCapNs  = 40_000  // backoff cap
	serveAttemptNs   = 60_000  // routed per-attempt reply timeout
	serveBreakerTrip = 3       // consecutive failures that open a breaker
	serveCooldownNs  = 100_000 // open → half-open probe delay

	// serveHorizonNs puts the watchdog past every other resolution path:
	// the last arrival's full deadline, plus one attempt timeout (a handler
	// parked just before it), plus slack for the final callback's charges.
	serveHorizonNs = ServeSLONs + serveAttemptNs + 20_000

	// serveNsPerWord is the server-side compute per payload word — the
	// saturation knob: capacity ≈ vprocs / (mean words × this). It is
	// deliberately heavier than the server workload's 6 ns/word: the
	// admission policies only differentiate when service time dominates
	// messaging cost, so a deadline nack (3 header words + a 3-word reply)
	// saves real capacity relative to serving a doomed request in full. At
	// 300 ns/word (mean request ~28 words) a 16-vproc pool saturates near
	// 1.9 requests/us.
	serveNsPerWord = 300

	// ServeSLONs is every request's deadline, from its scheduled arrival:
	// the SLO goodput counts against, the server-side nack test, and the
	// client-side give-up instant.
	ServeSLONs = 250_000

	// AdmitMemory's hysteresis watermarks, in percent of the chunk budget.
	ServeMemHighPct = 90
	ServeMemLowPct  = 70
)

// AdmissionPolicy selects the overload-control strategy.
type AdmissionPolicy int

const (
	// AdmitNone is the no-control baseline: unbounded request lanes, so
	// nothing is shed or retried on admission. Past saturation the queue
	// grows without bound and SLO attainment collapses.
	AdmitNone AdmissionPolicy = iota
	// AdmitQueue bounds the lanes: a full lane sheds at admission (TrySend
	// reports SendFull) and the client retries after the capped backoff.
	AdmitQueue
	// AdmitDeadline is AdmitQueue plus server-side deadline awareness: a
	// server that cannot finish a request before its deadline nacks it
	// cheaply instead of wasting service time on a guaranteed SLO miss.
	AdmitDeadline
	// AdmitMemory is AdmitQueue plus memory-aware admission: when the
	// runtime's heap-occupancy signal (core.Runtime.MemPressure) crosses
	// ServeMemHighPct of the chunk budget, attempts are shed at admission —
	// immediately, with no retries, relieving allocation pressure before
	// the emergency collection ladder has to engage — and admission reopens
	// once occupancy falls below ServeMemLowPct (hysteresis, so the gate
	// does not flap at the watermark). With no budget configured the gate
	// is inert and the policy behaves as AdmitQueue.
	AdmitMemory
)

var admissionNames = [...]string{AdmitNone: "none", AdmitQueue: "queue", AdmitDeadline: "deadline", AdmitMemory: "memory"}

// String names the policy (the CLI flag vocabulary).
func (p AdmissionPolicy) String() string {
	if p >= 0 && int(p) < len(admissionNames) {
		return admissionNames[p]
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
}

// ParseAdmission parses a policy name.
func ParseAdmission(s string) (AdmissionPolicy, error) {
	for p := AdmitNone; p <= AdmitMemory; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown admission policy %q (none, queue, deadline, memory)", s)
}

// CrashKind selects the crash the harness injects.
type CrashKind int

const (
	// CrashNone: no crash.
	CrashNone CrashKind = iota
	// CrashVProc kills the last replica's home vproc at CrashNs.
	CrashVProc
	// CrashBoard kills every vproc on the first board that hosts a replica
	// home but not vproc 0 — the correlated rack failure domain.
	CrashBoard
)

var crashNames = [...]string{CrashNone: "none", CrashVProc: "vproc", CrashBoard: "board"}

// String names the kind (the CLI flag vocabulary).
func (k CrashKind) String() string {
	if k >= 0 && int(k) < len(crashNames) {
		return crashNames[k]
	}
	return fmt.Sprintf("CrashKind(%d)", int(k))
}

// ParseCrashKind parses a crash kind name.
func ParseCrashKind(s string) (CrashKind, error) {
	for k := CrashNone; k <= CrashBoard; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown crash kind %q (none, vproc, board)", s)
}

// ServeOptions configures the harness; Validate states which
// configurations run.
type ServeOptions struct {
	Clients   int   // logical clients
	Requests  int   // requests per client
	MeanGapNs int64 // mean per-client inter-arrival gap (offered-load knob)

	Admission AdmissionPolicy
	Replicas  int // request lanes, homes spread over the boards

	// HedgeDelayNs, when positive, sends an identical copy of an accepted
	// first attempt to a different replica after this delay. 0 disables
	// hedging.
	HedgeDelayNs int64

	Crash   CrashKind // crash to inject
	CrashNs int64     // its instant (set exactly when Crash is)

	// Faults, when non-nil, is installed beside the harness's own crash
	// plan (stalls, bursts, squeezes, crashes — see core.FaultPlan). A plan
	// that crashes vprocs arms the watchdog like a planned Crash does.
	Faults *core.FaultPlan
}

// DefaultServeOptions scales the default shape: one replica under
// AdmitQueue, no hedging, no crash.
func DefaultServeOptions(scale float64) ServeOptions {
	return ServeOptions{
		Clients:   scaled(serveClients, scale),
		Requests:  scaled(serveRequests, scale),
		MeanGapNs: serveMeanGapNs,
		Admission: AdmitQueue,
		Replicas:  1,
	}
}

// Validate reports why the options cannot run on nv vprocs of topo, or nil.
// RunServe panics on what it rejects; the CLIs call it first, so a bad
// configuration costs no simulation time.
func (o ServeOptions) Validate(topo *numa.Topology, nv int) error {
	switch {
	case o.Clients < 1 || o.Requests < 1:
		return fmt.Errorf("workload: serving needs at least one client and one request, got %d x %d", o.Clients, o.Requests)
	case o.MeanGapNs < 2:
		return fmt.Errorf("workload: mean gap %d ns is not a usable inter-arrival gap (need >= 2 ns)", o.MeanGapNs)
	case o.Admission < AdmitNone || o.Admission > AdmitMemory:
		return fmt.Errorf("workload: unknown admission policy %v", o.Admission)
	case o.Replicas < 1:
		return fmt.Errorf("workload: replicas %d is not a positive replication level", o.Replicas)
	case o.HedgeDelayNs < 0:
		return fmt.Errorf("workload: hedge delay %d ns is negative (0 disables hedging)", o.HedgeDelayNs)
	case o.HedgeDelayNs > 0 && o.Replicas < 2:
		return fmt.Errorf("workload: hedge delay %d ns needs replicas >= 2 (a hedge goes to another replica)", o.HedgeDelayNs)
	case o.Crash < CrashNone || o.Crash > CrashBoard:
		return fmt.Errorf("workload: unknown crash kind %v", o.Crash)
	case !planFits(nv, o.Requests, o.MeanGapNs, serveHorizonNs, o.HedgeDelayNs):
		return fmt.Errorf("workload: %d requests per client at a mean gap of %d ns, then the %d ns horizon and a %d ns hedge delay, can plan instants past %d ns, half the virtual clock of a %d-vproc run",
			o.Requests, o.MeanGapNs, serveHorizonNs, o.HedgeDelayNs, vtime.MaxKeyClock(nv)/2, nv)
	case o.Crash == CrashNone && o.CrashNs != 0:
		return fmt.Errorf("workload: crash instant %d ns set without a crash kind", o.CrashNs)
	case o.Crash == CrashNone:
		return nil
	case o.CrashNs < 1:
		return fmt.Errorf("workload: crash %v needs a crash instant >= 1 ns, got %d", o.Crash, o.CrashNs)
	case nv < 2:
		return fmt.Errorf("workload: crash %v needs at least 2 vprocs (vproc 0 coordinates and is never a crash target), got %d", o.Crash, nv)
	case o.Crash != CrashBoard:
		return nil
	case topo.Boards() < 2:
		return fmt.Errorf("workload: crash board needs a multi-board machine (%s has %d board(s)); try rack256", topo.Name, topo.Boards())
	case o.Replicas < 2:
		return fmt.Errorf("workload: crash board with replicas 1 leaves no surviving replica; use replicas >= 2")
	}
	if need := offBoardVProcs(topo); nv < need {
		return fmt.Errorf("workload: crash board on %s needs at least %d vprocs, got %d: sparse placement fills vproc 0's board first, so a smaller pool has no vproc on another board to kill",
			topo.Name, need, nv)
	}
	return nil
}

// offBoardVProcs is the smallest vproc count whose sparse placement puts a
// vproc on a board other than vproc 0's: the placement is round-robin over
// nodes, so a smaller count is a prefix of it. Validate only asks on
// multi-board machines, which always have one.
func offBoardVProcs(topo *numa.Topology) int {
	cores := topo.SparseCoreAssignment(topo.NumCores())
	home := topo.BoardOfNode(topo.NodeOfCore(cores[0]))
	for i, c := range cores {
		if topo.BoardOfNode(topo.NodeOfCore(c)) != home {
			return i + 1
		}
	}
	return len(cores) + 1
}

// ServeResult is one harness execution: its ledger, the planned window, and
// the completed requests' latencies.
type ServeResult struct {
	Result // makespan, checksum (rerun-stable), runtime stats

	ServeLedger

	// WindowNs is the planned arrival horizon: offered rate = Offered /
	// WindowNs. HorizonNs is the watchdog's instant (0 when none is armed).
	WindowNs  int64
	HorizonNs int64

	Latencies // of the completed requests
}

// ServeLedger is a serving run's ledger: every offered request's
// resolution, the pre-crash split, routing, and the crashes. Offered always
// equals Completed + Expired + ShedAdmission + ShedFault + ShedMemory +
// FailedDeadline + LostClient. The JSON names are the baselines' (it is
// embedded in bench.Point too).
type ServeLedger struct {
	Offered        int `json:"offered,omitempty"`         // planned requests
	Completed      int `json:"completed,omitempty"`       // served with a real reply
	GoodSLO        int `json:"good_slo,omitempty"`        // completed within ServeSLONs of the scheduled arrival
	Expired        int `json:"expired,omitempty"`         // nacked server-side (deadline unmeetable)
	ShedAdmission  int `json:"shed_admission,omitempty"`  // given up with the retry budget spent
	ShedFault      int `json:"shed_fault,omitempty"`      // every lane dead (closed or crashed) at an attempt
	ShedMemory     int `json:"shed_memory,omitempty"`     // shed by the memory gate or an AllocFailed request buffer
	FailedDeadline int `json:"failed_deadline,omitempty"` // the deadline passed before an attempt could start
	LostClient     int `json:"lost_client,omitempty"`     // the client chain died with a crashed vproc

	// The part of Offered, GoodSLO and LostClient whose scheduled arrival
	// precedes CrashNs (all zero without a crash): the pre-crash half of the
	// degradation figure; the post-crash half is the total minus this.
	OfferedPre int `json:"offered_pre,omitempty"`
	GoodPre    int `json:"good_pre,omitempty"`
	LostPre    int `json:"lost_pre,omitempty"`

	Retries      int64 `json:"retries,omitempty"`       // re-attempts, whatever failed
	Rerouted     int64 `json:"rerouted,omitempty"`      // attempts redirected off a dead lane
	Hedged       int64 `json:"hedged,omitempty"`        // hedge copies sent
	HedgeWins    int64 `json:"hedge_wins,omitempty"`    // completions served by the hedge's target replica
	BreakerTrips int64 `json:"breaker_trips,omitempty"` // closed/half-open → open transitions
	FastFails    int64 `json:"fast_fails,omitempty"`    // attempt instants where every breaker was open
	LateReplies  int64 `json:"late_replies,omitempty"`  // replies that arrived after their request resolved

	Crashes int `json:"crashes,omitempty"` // vprocs killed (harness plan and caller plan)
}

// ServingGoodputPost returns the post-crash goodput numerator and
// denominator over requests whose clients survived to observe an outcome —
// the serving layer's failover figure of merit. (A dead client offers no
// load in a real system; the harness plans every arrival up front, so a
// dead client's requests land in LostClient instead of disappearing, and
// counting them against the serving layer would charge the fabric for
// clients it could never have answered.)
func (l ServeLedger) ServingGoodputPost() (num, den int) {
	return l.GoodSLO - l.GoodPre, (l.Offered - l.OfferedPre) - (l.LostClient - l.LostPre)
}

// resolution is a request's entry in the exactly-once ledger.
type resolution uint8

const (
	unresolved resolution = iota
	resCompleted
	resExpired
	resShedAdmission
	resShedFault
	resShedMemory
	resFailedDeadline
	resLostClient
)

// breaker is one replica's circuit breaker. States: closed (admit all),
// open (admit none until the cooldown), half-open (one probe in flight; its
// outcome closes or re-opens). A dead lane pins the breaker open forever.
type breaker struct {
	state    int // 0 closed, 1 open, 2 half-open
	fails    int // consecutive failures while closed
	openedAt int64
	dead     bool
	trips    int64
}

// allow reports whether an attempt may target the replica now, advancing
// open → half-open when the cooldown has elapsed (the caller's attempt is
// the probe).
func (b *breaker) allow(now int64) bool {
	switch b.state {
	case 0:
		return true
	case 1:
		if !b.dead && now >= b.openedAt+serveCooldownNs {
			b.state = 2
			return true
		}
	}
	return false // open, or half-open with the probe in flight
}

// success records a served reply: the probe (or any closed-state success)
// resets the breaker. A dead breaker stays open — a straggler reply from a
// crashed replica (served before the crash, delivered after) is not
// evidence of life.
func (b *breaker) success() {
	if !b.dead {
		b.state, b.fails = 0, 0
	}
}

// failure records a failed attempt (reply timeout, full lane): a half-open
// probe re-opens immediately, a closed breaker opens at the threshold.
func (b *breaker) failure(now int64) {
	b.fails++
	if b.state == 2 || (b.state == 0 && b.fails >= serveBreakerTrip) {
		b.state = 1
		b.openedAt = now
		b.trips++
	}
}

// serveState is the harness's host-side bookkeeping; all mutation happens
// in engine-serialized task code.
type serveState struct {
	openPlan // acc folds each request's resolution
	opt      ServeOptions

	crashes bool // a crash is planned: the watchdog is armed
	routed  bool // attempt timeouts and breakers: Replicas > 1 or crashes

	homes    []int // lane home vproc IDs
	lanes    []*core.Channel
	breakers []breaker
	live     int // lanes not known dead

	// replies, outcome and hedgeTo are per request, indexed like the
	// plan's arrays (at).
	replies []*core.Channel // closed at resolution
	outcome []resolution    // the exactly-once ledger
	hedgeTo []int           // hedge target replica + 1 (hedging only)
	served  []span          // completed requests' lifetimes, arrival to reply

	unresolved  int
	memShedding bool // AdmitMemory's hysteresis state
	res         ServeResult
}

// RunServe executes the harness. The virtual results are deterministic —
// bit-identical across reruns at any host-side worker count.
func RunServe(rt *core.Runtime, opt ServeOptions) ServeResult {
	if err := opt.Validate(rt.Cfg.Topo, rt.Cfg.NumVProcs); err != nil {
		panic(err.Error())
	}
	return newServe(rt, opt).run(rt)
}

// newServe draws the plan and builds the lanes and the ledger.
func newServe(rt *core.Runtime, opt ServeOptions) *serveState {
	n := opt.Clients * opt.Requests
	st := &serveState{
		openPlan:   planOpenLoop(rt.Cfg.Seed, opt.Clients, opt.Requests, opt.MeanGapNs),
		opt:        opt,
		crashes:    opt.Crash != CrashNone || plansCrash(opt.Faults),
		homes:      serveHomes(rt, opt.Replicas),
		lanes:      make([]*core.Channel, opt.Replicas),
		breakers:   make([]breaker, opt.Replicas),
		live:       opt.Replicas,
		replies:    make([]*core.Channel, n),
		outcome:    make([]resolution, n),
		served:     make([]span, 0, n),
		unresolved: n,
	}
	st.routed = opt.Replicas > 1 || st.crashes
	for i := range st.lanes {
		if opt.Admission == AdmitNone {
			st.lanes[i] = rt.NewChannel()
		} else {
			st.lanes[i] = rt.NewMailbox(serveLaneDepth)
		}
		st.lanes[i].SetOwner(rt.VProcs[st.homes[i]])
	}
	for i := range st.replies {
		st.replies[i] = rt.NewChannel()
	}
	if opt.HedgeDelayNs > 0 {
		st.hedgeTo = make([]int, n)
	}
	return st
}

// plansCrash reports whether a caller's fault plan crashes any vproc.
func plansCrash(p *core.FaultPlan) bool {
	if p != nil {
		for _, ev := range p.Events {
			if ev.Kind == core.FaultCrash {
				return true
			}
		}
	}
	return false
}

// serveHomes spreads the lane home vprocs round-robin over the machine's
// boards, skipping vproc 0 (the coordinator that owns the watchdog must
// survive every harness crash plan) unless it is the only vproc.
// Deterministic in the runtime's placement.
func serveHomes(rt *core.Runtime, replicas int) []int {
	topo := rt.Cfg.Topo
	byBoard := make([][]int, topo.Boards())
	for _, vp := range rt.VProcs {
		if vp.ID == 0 && len(rt.VProcs) > 1 {
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

// withCrash appends the harness's own crash (none for CrashNone), aimed at
// the resolved homes, to plan.
func (st *serveState) withCrash(rt *core.Runtime, plan *core.FaultPlan) *core.FaultPlan {
	switch st.opt.Crash {
	case CrashVProc:
		plan.CrashAt(st.homes[len(st.homes)-1], st.opt.CrashNs)
	case CrashBoard:
		topo := rt.Cfg.Topo
		keep := topo.BoardOfNode(rt.VProcs[0].Node)
		for _, home := range st.homes {
			if b := topo.BoardOfNode(rt.VProcs[home].Node); b != keep {
				return plan.CrashBoardAt(b, st.opt.CrashNs)
			}
		}
		panic("workload: no replica home off the coordinator's board (Validate admits none such)")
	}
	return plan
}

// run installs the faults — a copy of the caller's plan (InstallFaults arms
// pointers into the event slice, and callers may reuse their plan across
// runs) plus the harness's crash — runs the servers, clients and watchdog,
// records the GC event timeline (chaining any tracer the caller installed),
// and tallies the ledger and the attribution.
func (st *serveState) run(rt *core.Runtime) ServeResult {
	opt := st.opt
	plan := &core.FaultPlan{}
	if opt.Faults != nil {
		plan.Events = append(plan.Events, opt.Faults.Events...)
	}
	rt.InstallFaults(st.withCrash(rt, plan))
	var gc gcSpans
	defer gc.record(rt)()
	for c := range opt.Clients {
		st.res.WindowNs = max(st.res.WindowNs, st.arrival[st.at(c, opt.Requests-1)])
	}
	if st.crashes {
		st.res.HorizonNs = st.res.WindowNs + serveHorizonNs
	}
	st.send = func(vp *core.VProc, c, r int) { st.attempt(vp, c, r, 0) }
	elapsed := rt.Run(func(vp *core.VProc) {
		if st.crashes {
			vp.AtThen(st.res.HorizonNs, nil, func(vp *core.VProc, _ core.Env) { st.watchdog() })
		}
		// One server chain per vproc on every lane: a replica that loses its
		// peers can still use the whole surviving machine.
		for rep := range st.lanes {
			for s := 0; s < rt.Cfg.NumVProcs; s++ {
				vp.Spawn(func(svp *core.VProc, _ core.Env) { st.serve(svp, rep) })
			}
		}
		for c := 0; c < opt.Clients; c++ {
			// The chain belongs to whichever vproc runs this spawn task; if
			// that vproc crashes, the client's remaining requests are lost.
			vp.Spawn(func(cvp *core.VProc, _ core.Env) { st.arm(cvp, c, 0) })
		}
	})

	res := st.res
	res.Result = Result{ElapsedNs: elapsed, Check: st.check(), Stats: rt.TotalStats()}
	res.Crashes = res.Stats.Crashes
	for _, b := range st.breakers {
		res.BreakerTrips += b.trips
	}
	var n, pre [resLostClient + 1]int
	for i, k := range st.outcome {
		n[k]++
		if st.arrival[i] < opt.CrashNs {
			pre[k]++
		}
	}
	if n[unresolved] != 0 {
		panic(fmt.Sprintf("workload: serving accounting leak: %d requests never resolved", n[unresolved]))
	}
	for _, p := range pre {
		res.OfferedPre += p
	}
	res.Offered = opt.Clients * opt.Requests
	res.Completed = n[resCompleted]
	res.Expired, res.ShedAdmission, res.ShedFault = n[resExpired], n[resShedAdmission], n[resShedFault]
	res.ShedMemory, res.FailedDeadline = n[resShedMemory], n[resFailedDeadline]
	res.LostClient, res.LostPre = n[resLostClient], pre[resLostClient]
	res.Latencies = measureLatencies(rt, &gc, st.served)
	return res
}

// deadline is request (c, r)'s absolute deadline.
func (st *serveState) deadline(c, r int) int64 {
	return st.arrival[st.at(c, r)] + ServeSLONs
}

// request builds request (c, r)'s buffer: [client, seq, deadline, noise...]
// — the deadline travels with the request, so a server's nack decision
// needs no host-side side channel, and every attempt and hedge of the
// request sends identical words.
func (st *serveState) request(vp *core.VProc, c, r int) []uint64 {
	buf := st.payload(vp, c, r, 3)
	buf[2] = uint64(st.deadline(c, r))
	return buf
}

// resolve retires request (c, r) exactly once with outcome k, folding x
// (the reply's checksum, or the attempt) into the client's accumulator: the
// reply channel closes (a straggler reply or hedge handler finds it dead),
// and the last resolution closes every surviving lane, releasing the
// server chains.
func (st *serveState) resolve(c, r int, k resolution, x uint64) {
	i := st.at(c, r)
	if st.outcome[i] != unresolved {
		panic(fmt.Sprintf("workload: client %d request %d resolved twice", c, r))
	}
	st.outcome[i] = k
	st.acc[c] += fnv1a(fnv1a(uint64(k), uint64(r)), x)
	st.replies[i].Close()
	st.unresolved--
	if st.unresolved == 0 {
		for _, lane := range st.lanes {
			if !lane.Closed() {
				lane.Close()
			}
		}
	}
}

// resolved reports whether request (c, r) has its outcome.
func (st *serveState) resolved(c, r int) bool { return st.outcome[st.at(c, r)] != unresolved }

// watchdog classifies every request still unresolved at the horizon — its
// client chain died with a crashed vproc — as LostClient, and so closes the
// lanes.
func (st *serveState) watchdog() {
	for i, k := range st.outcome {
		if k == unresolved {
			st.resolve(i/st.requests, i%st.requests, resLostClient, 0)
		}
	}
}

// memGateClosed evaluates AdmitMemory's watermark gate against the
// runtime's occupancy signal, advancing the hysteresis state: closed at the
// high watermark of the budget, reopened below the low one. Inert (always
// open) when the heap is unbounded.
func (st *serveState) memGateClosed(vp *core.VProc) bool {
	mp := vp.Runtime().MemPressure()
	if mp.BudgetChunks <= 0 {
		return false
	}
	occ := mp.ActiveChunks * 100
	if st.memShedding {
		st.memShedding = occ >= ServeMemLowPct*mp.BudgetChunks
	} else {
		st.memShedding = occ >= ServeMemHighPct*mp.BudgetChunks
	}
	return st.memShedding
}

// pick returns the lane attempt n of client c's request goes to: the only
// one, or the first from a deterministic rotation whose breaker admits an
// attempt now (-1 if every breaker is open). The rotation start varies by
// (client, attempt) so retries change replica and clients spread over the
// pool.
func (st *serveState) pick(now int64, c, n int) int {
	if !st.routed {
		return 0
	}
	k := len(st.lanes)
	for i := 0; i < k; i++ {
		if rep := (c + n + i) % k; st.breakers[rep].allow(now) {
			return rep
		}
	}
	return -1
}

// attempt makes attempt n at request (c, r): the deadline and memory
// checks, the lane choice, the offer, and what each admission status means.
// Two memory outcomes shed immediately, without retries (retrying into a
// full heap only deepens the pressure): AdmitMemory's gate is closed, or
// the request buffer's TryAllocRaw failed after the emergency collection
// ladder.
func (st *serveState) attempt(vp *core.VProc, c, r, n int) {
	if st.resolved(c, r) {
		return // a hedge or a straggler reply won while this attempt waited
	}
	now := vp.Now()
	if st.opt.Admission == AdmitMemory && st.memGateClosed(vp) {
		st.resolve(c, r, resShedMemory, uint64(n))
		return
	}
	rep := st.pick(now, c, n)
	if rep < 0 {
		st.res.FastFails++
		st.retry(vp, c, r, n, true)
		return
	}
	status, ok := offerRaw(vp, st.lanes[rep], st.request(vp, c, r))
	if st.resolved(c, r) && (!ok || status != core.SendOK) {
		return // a reply resolved the request while the offer advanced
	}
	if !ok {
		st.resolve(c, r, resShedMemory, uint64(n)|0x100)
		return
	}
	switch status {
	case core.SendOK:
		st.await(vp, c, r, n, rep)
		if st.hedgeTo != nil && n == 0 {
			vp.AfterThen(st.opt.HedgeDelayNs, nil, func(vp *core.VProc, _ core.Env) { st.hedge(vp, c, r, rep) })
		}
	case core.SendFull:
		if st.routed {
			st.breakers[rep].failure(vp.Now())
		}
		st.retry(vp, c, r, n, true)
	case core.SendCrashed, core.SendClosed:
		st.laneDied(vp.Now(), rep)
		if st.live == 0 {
			st.resolve(c, r, resShedFault, uint64(n))
			return
		}
		st.res.Rerouted++
		st.retry(vp, c, r, n, false)
	}
}

// retry is the one give-up rule: a request whose retry budget is spent is
// shed; otherwise attempt n+1 runs now (after a timeout or off a dead lane,
// where waiting buys nothing) or after the capped exponential backoff with
// jitter in [base/2, 3*base/2), drawn from a per-(request, attempt) seeded
// stream — randomized enough to de-synchronize retry herds, deterministic
// enough to replay bit-identically.
func (st *serveState) retry(vp *core.VProc, c, r, n int, backoff bool) {
	switch {
	case n >= serveMaxRetries:
		st.resolve(c, r, resShedAdmission, uint64(n))
		return
	case vp.Now() >= st.deadline(c, r):
		st.resolve(c, r, resFailedDeadline, uint64(n))
		return
	}
	st.res.Retries++
	if !backoff {
		st.attempt(vp, c, r, n+1)
		return
	}
	base := min(int64(serveRetryBaseNs)<<n, serveRetryCapNs)
	j := newRand(fnv1a(latReqSeed(st.seed, c, r), uint64(n+1)) | 1)
	vp.AfterThen(base/2+int64(j.Next()%uint64(base)), nil, func(vp *core.VProc, _ core.Env) {
		st.attempt(vp, c, r, n+1)
	})
}

// laneDied pins replica rep's breaker open: its lane reported SendCrashed
// or SendClosed, so no attempt there can ever succeed.
func (st *serveState) laneDied(now int64, rep int) {
	b := &st.breakers[rep]
	if !b.dead {
		st.live--
	}
	if b.state != 1 {
		b.trips++
	}
	b.state, b.openedAt, b.dead = 1, now, true
}

// await parks the reply handler of an accepted attempt. Routed, it waits
// one attempt timeout: a timeout records a breaker failure (the replica
// accepted and went dark — crashed mid-service, or hopelessly backlogged)
// and retries. The reply channel is per request, not per attempt: when
// copies are in flight (a hedge, or a retry racing a straggler), whichever
// reply arrives first goes to the earliest parked handler, so attribution
// comes from the reply itself, which names the serving replica.
func (st *serveState) await(vp *core.VProc, c, r, n, rep int) {
	if !st.routed {
		st.replies[st.at(c, r)].RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
			st.reply(vp, c, r, n, rep, msg, true)
		})
		return
	}
	st.replies[st.at(c, r)].RecvThenTimeout(vp, serveAttemptNs, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr, ok bool) {
		st.reply(vp, c, r, n, rep, msg, ok)
	})
}

// reply handles what an awaited attempt received: a timeout (!ok), the
// close of an already-resolved request (nil), or a reply [sum, nacked,
// replica].
func (st *serveState) reply(vp *core.VProc, c, r, n, rep int, msg heap.Addr, ok bool) {
	if st.resolved(c, r) {
		if ok && msg != 0 {
			st.res.LateReplies++
		}
		return
	}
	if !ok {
		// The request may still be served later (its reply channel stays
		// open until resolution): a straggler can beat the retry, never
		// double-resolve.
		st.breakers[rep].failure(vp.Now())
		st.retry(vp, c, r, n, false)
		return
	}
	if msg == 0 {
		return
	}
	p := vp.ReadBlock(msg)
	if st.resolved(c, r) {
		// The other copy's reply resolved the request while this one was
		// read (a hedge and its primary, or a retry and a straggler).
		st.res.LateReplies++
		return
	}
	if p[1] != 0 {
		st.resolve(c, r, resExpired, 1)
		return
	}
	servedBy := int(p[2])
	if st.routed {
		st.breakers[servedBy].success()
	}
	if st.hedgeTo != nil && st.hedgeTo[st.at(c, r)] == servedBy+1 {
		st.res.HedgeWins++
	}
	start := st.arrival[st.at(c, r)]
	st.served = append(st.served, span{start, vp.Now()})
	if vp.Now()-start <= ServeSLONs {
		st.res.GoodSLO++
		if start < st.opt.CrashNs {
			st.res.GoodPre++
		}
	}
	st.resolve(c, r, resCompleted, p[0])
}

// hedge sends the identical request copy to a different replica than the
// primary attempt used. Unlike a retry it neither reroutes nor backs off:
// the primary is still in flight, the hedge is pure insurance.
func (st *serveState) hedge(vp *core.VProc, c, r, primary int) {
	if st.resolved(c, r) {
		return
	}
	now := vp.Now()
	k := len(st.lanes)
	for i := 1; i < k; i++ {
		rep := (primary + i) % k
		if !st.breakers[rep].allow(now) {
			continue
		}
		status, ok := offerRaw(vp, st.lanes[rep], st.request(vp, c, r))
		switch {
		case !ok: // the primary attempt still carries the request
		case status == core.SendOK:
			st.res.Hedged++
			st.hedgeTo[st.at(c, r)] = rep + 1
			st.await(vp, c, r, 0, rep)
		case status == core.SendCrashed || status == core.SendClosed:
			st.laneDied(vp.Now(), rep)
		}
		return
	}
}

// serve is one server chain of lane rep: receive, serve (or, under
// AdmitDeadline, nack a request whose remaining service time cannot meet
// its deadline after reading only its header — a saturated server then
// spends its time on requests that can still succeed), reply on the
// request's own channel, re-park. A nil message is the lane dying — orderly
// shutdown or its home's crash — and ends the chain.
func (st *serveState) serve(vp *core.VProc, rep int) {
	st.lanes[rep].RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
		if msg == 0 {
			return
		}
		var c, r, sum, nacked uint64
		if st.opt.Admission == AdmitDeadline && vp.Now()+int64(vp.ObjectLen(msg))*serveNsPerWord > int64(vp.LoadWord(msg, 2)) {
			c, r, nacked = vp.LoadWord(msg, 0), vp.LoadWord(msg, 1), 1
		} else {
			c, r, sum = serveRequest(vp, msg, serveNsPerWord)
		}
		if sendRaw(vp, st.replies[st.at(int(c), int(r))], []uint64{sum, nacked, uint64(rep)}) != core.SendOK {
			// The request resolved (deadline, hedge win, watchdog) while
			// this reply was being computed; the work is discarded.
			st.res.LateReplies++
		}
		st.serve(vp, rep)
	})
}
