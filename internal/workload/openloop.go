package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Open-loop client plumbing shared by the latency, overload and failover
// harnesses: the seeded arrival plan, the timer chain that fires it, the
// request payload, retry backoff, the result fold, and fault-plan
// installation. What each harness
// does with an arrival — admission, retries, routing, how replies are
// awaited and served — stays in its own file: those protocols differ in
// kind (pre-parked collect chains; per-client reply channels; per-request
// reply channels with timeouts), and every committed baseline pins their
// exact schedules.

// openPlan is the offered load of one open-loop run: every arrival instant
// and request shape, drawn up front from seeded per-client streams. It is a
// pure function of (seed, clients, requests, mean gap), independent of
// anything the runtime does — the open-loop contract — and identical across
// the three harnesses at equal options. The harness sets send (what an
// arrival does) before arming, and accumulates its per-client commutative
// result fold into acc.
type openPlan struct {
	seed    uint64
	arrival [][]int64 // scheduled arrival instants, increasing per client
	large   [][]bool  // request shape: drawn for the large lane
	words   [][]int   // request shape: payload words
	acc     []uint64
	send    func(vp *core.VProc, c, r int)
}

// latClientSeed derives the per-client arrival/shape stream seed.
func latClientSeed(seed uint64, c int) uint64 {
	return seed ^ uint64(c+1)*0xBF58476D1CE4E5B9
}

// latReqSeed derives the per-request payload stream seed, so a request's
// contents can be regenerated at send time without replaying the client
// stream.
func latReqSeed(seed uint64, c, r int) uint64 {
	return fnv1a(fnv1a(seed, uint64(c)), uint64(r)) | 1
}

// planOpenLoop draws the plan. Stream discipline per request: one gap draw,
// then the shape draws (LatencySeq replays it). A plan whose arrivals would
// run past the largest int64 instant is rejected with a panic, before any
// arrival wraps negative.
func planOpenLoop(seed uint64, clients, requests int, meanGapNs int64) openPlan {
	p := openPlan{
		seed:    seed,
		arrival: make([][]int64, clients),
		large:   make([][]bool, clients),
		words:   make([][]int, clients),
		acc:     make([]uint64, clients),
	}
	for c := 0; c < clients; c++ {
		rng := newRand(latClientSeed(seed, c))
		p.arrival[c] = make([]int64, requests)
		p.large[c] = make([]bool, requests)
		p.words[c] = make([]int, requests)
		var t int64
		for r := 0; r < requests; r++ {
			// Uniform jitter in [mean/2, 3*mean/2): a deterministic
			// integer-only arrival process with the configured mean. Both
			// terms are non-negative, so each is checked against the room
			// left below math.MaxInt64 before it is added.
			half, jitter := meanGapNs/2, int64(rng.Next()%uint64(meanGapNs))
			if half > math.MaxInt64-t || jitter > math.MaxInt64-t-half {
				panic(fmt.Sprintf("workload: arrival plan overflows int64 at client %d request %d (previous arrival %d ns, mean gap %d ns)",
					c, r, t, meanGapNs))
			}
			t += half + jitter
			p.arrival[c][r] = t
			lane, words := srvRequestShape(rng)
			p.large[c][r] = lane == 1
			p.words[c][r] = words
		}
	}
	return p
}

// arm schedules p.send for client c's request r at its planned arrival
// instant and chains the next one. The chain is open-loop: each arm uses the
// *planned* absolute instant, so a send delayed by a collection (or a
// degraded runtime) does not push later arrivals back — an instant already
// in the past fires at the next safepoint. The chain belongs to whichever
// vproc runs it; if that vproc crashes, the client's remaining requests are
// never sent.
func (p *openPlan) arm(vp *core.VProc, c, r int) {
	if r == len(p.arrival[c]) {
		return
	}
	vp.AtThen(p.arrival[c][r], nil, func(vp *core.VProc, _ core.Env) {
		p.send(vp, c, r)
		p.arm(vp, c, r+1)
	})
}

// payload builds request (c, r)'s buffer: [client, seq, ...], with seeded
// noise from word first on (a harness that carries more header words fills
// the gap itself). The contents depend only on (seed, c, r), so every
// attempt, retry and hedge of a request sends identical words.
func (p *openPlan) payload(c, r, first int) []uint64 {
	rng := newRand(latReqSeed(p.seed, c, r))
	buf := make([]uint64, p.words[c][r])
	buf[0], buf[1] = uint64(c), uint64(r)
	for i := first; i < len(buf); i++ {
		buf[i] = rng.Next()
	}
	return buf
}

// backoffNs is attempt's capped exponential backoff (baseNs doubling per
// attempt up to capNs) with jitter in [base/2, 3*base/2), drawn from a
// per-(request, attempt) seeded stream — randomized enough to de-synchronize
// retry herds, deterministic enough to replay bit-identically.
func (p *openPlan) backoffNs(c, r, attempt int, baseNs, capNs int64) int64 {
	base := baseNs << uint(attempt-1)
	if base > capNs || base <= 0 { // <= 0: the shift overflowed
		base = capNs
	}
	j := newRand(fnv1a(latReqSeed(p.seed, c, r), uint64(attempt)) | 1)
	return base/2 + int64(j.Next()%uint64(base))
}

// windowNs is the planned arrival horizon: the last scheduled arrival.
func (p *openPlan) windowNs() int64 {
	var last int64
	for _, a := range p.arrival {
		if t := a[len(a)-1]; t > last {
			last = t
		}
	}
	return last
}

// check folds the per-client accumulators into the run's checksum.
func (p *openPlan) check() uint64 {
	var check uint64
	for _, a := range p.acc {
		check = fnv1a(check, a)
	}
	return check
}

// installFaults installs the caller's fault plan followed by the harness's
// own events; either may be nil. The caller's plan is copied, never extended
// in place: InstallFaults arms pointers into the event slice, and callers
// may reuse their plan across runs.
func installFaults(rt *core.Runtime, caller, own *core.FaultPlan) {
	plan := caller
	if own != nil {
		plan = &core.FaultPlan{}
		if caller != nil {
			plan.Events = append(plan.Events, caller.Events...)
		}
		plan.Events = append(plan.Events, own.Events...)
	}
	if plan != nil {
		rt.InstallFaults(plan)
	}
}
