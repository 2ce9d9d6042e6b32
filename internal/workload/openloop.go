package workload

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/vtime"
)

// Open-loop client plumbing shared by the latency and serving harnesses:
// the seeded arrival plan, the timer chain that fires it, the request
// payload and the result fold. The two are the repository's two client
// engines and differ in protocol: the latency harness (and the `server`
// workload, its burst) pre-parks one reply-collection chain per client and
// never retries, so it measures the runtime and nothing else; the serving
// harness (serve.go) gives every request its own reply channel and runs
// admission, retries, routing and crash handling around each attempt.
// Folding latency into the serving engine is open work.

// openPlan is the offered load of one open-loop run: every arrival instant
// and request shape, drawn up front from seeded per-client streams. It is a
// pure function of (seed, clients, requests, mean gap), independent of
// anything the runtime does — the open-loop contract — and identical across
// both harnesses at equal options. The harness sets send (what an
// arrival does) before arming, and accumulates its per-client commutative
// result fold into acc.
type openPlan struct {
	seed    uint64
	arrival [][]int64 // scheduled arrival instants, increasing per client
	lane    [][]int   // request shape: its lane (srvRequestShape: 0 small, 1 large)
	words   [][]int   // request shape: payload words
	acc     []uint64
	send    func(vp *core.VProc, c, r int)
	bufs    [][]uint64 // per vproc, the payload of the request it sends (payload)
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
// then the shape draws (LatencySeq replays it). A mean gap of 0 (or 1) is a
// burst: every arrival at instant 0. The harnesses check the plan fits
// (planFits) before they draw it, so no arrival overflows.
func planOpenLoop(seed uint64, clients, requests int, meanGapNs int64) openPlan {
	p := openPlan{
		seed:    seed,
		arrival: make([][]int64, clients),
		lane:    make([][]int, clients),
		words:   make([][]int, clients),
		acc:     make([]uint64, clients),
	}
	for c := 0; c < clients; c++ {
		rng := newRand(latClientSeed(seed, c))
		p.arrival[c] = make([]int64, requests)
		p.lane[c] = make([]int, requests)
		p.words[c] = make([]int, requests)
		var t int64
		for r := 0; r < requests; r++ {
			// Uniform jitter in [mean/2, 3*mean/2): a deterministic
			// integer-only arrival process with the configured mean.
			t += meanGapNs/2 + int64(rng.Next()%uint64(max(meanGapNs, 1)))
			p.arrival[c][r] = t
			p.lane[c][r], p.words[c][r] = srvRequestShape(rng)
		}
	}
	return p
}

// planFits reports whether requests gaps of at most mean/2 + mean - 1
// (planOpenLoop's jitter), then the non-negative delays extraNs, stay within
// half the clock of an nv-vproc run (vtime.MaxKeyClock), leaving the other
// half to the work the plan starts. The sum is formed in 128 bits.
func planFits(nv, requests int, meanGapNs int64, extraNs ...int64) bool {
	hi, reach := bits.Mul64(uint64(requests), uint64(meanGapNs/2)+uint64(max(meanGapNs, 1))-1)
	for _, x := range extraNs {
		var carry uint64
		reach, carry = bits.Add64(reach, uint64(x), 0)
		hi += carry
	}
	return hi == 0 && reach <= uint64(vtime.MaxKeyClock(nv)/2)
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
// attempt, retry and hedge of a request sends identical words. The buffer is
// vp's payload buffer, refilled by its next call: the allocators copy it, and
// a vproc allocates one request at a time (the safepoint before the copy may
// advance, and another vproc may fill its own buffer meanwhile).
func (p *openPlan) payload(vp *core.VProc, c, r, first int) []uint64 {
	rng := newRand(latReqSeed(p.seed, c, r))
	if p.bufs == nil {
		p.bufs = make([][]uint64, len(vp.Runtime().VProcs))
	}
	if p.bufs[vp.ID] == nil {
		p.bufs[vp.ID] = make([]uint64, srvMaxObject(0))
	}
	buf := p.bufs[vp.ID][:p.words[c][r]]
	buf[0], buf[1] = uint64(c), uint64(r)
	for i := first; i < len(buf); i++ {
		buf[i] = rng.Next()
	}
	return buf
}

// check folds the per-client accumulators into the run's checksum.
func (p *openPlan) check() uint64 {
	var check uint64
	for _, a := range p.acc {
		check = fnv1a(check, a)
	}
	return check
}
