package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// Server (beyond the paper's five benchmarks): a message-passing server
// workload in the shape the paper's CML constructs exist for. N client
// workers issue request/response round-trips over channels to a pool of
// server workers; requests carry mixed payload sizes split across a
// small-message and a large-message request channel, and each server
// receives with a Select over both (large requests first). Every message
// travels by object proxy, so the workload exercises the whole concurrency
// stack: proxy creation, lazy cross-vproc promotion, heap-resident pending
// queues surviving collections, rendezvous handoffs, and continuation
// parking.
//
// Clients send their full request budget before collecting replies, and
// both clients and servers advance through RecvThen/SelectThen continuation
// chains rather than blocking frames; together with fixed per-server quotas
// summing to the request total, this makes the workload deadlock-free at
// any vproc count (a parked task can always be resumed by whichever vproc
// receives its message; a parked frame could not).
const (
	srvClients  = 12 // client workers at scale 1
	srvRequests = 20 // requests per client at scale 1

	srvSmallMin, srvSmallSpan = 4, 12  // small request payload words
	srvLargeMin, srvLargeSpan = 48, 72 // large request payload words

	srvComputePerWordNs = 6 // server-side processing per payload word
)

// serverParams derives the workload shape from the vproc count and scale.
func serverParams(nv int, scale float64) (clients, requests, servers int) {
	clients = scaled(srvClients, scale)
	requests = scaled(srvRequests, scale)
	servers = nv
	if servers > clients {
		servers = clients
	}
	return
}

// RunServer executes the benchmark. Check folds every client's reply
// checksums and is identical across vproc counts (reply contents depend
// only on request contents, which are generated per client from the
// configured seed).
func RunServer(rt *core.Runtime, scale float64) Result {
	clients, requests, servers := serverParams(rt.Cfg.NumVProcs, scale)
	total := clients * requests
	seed := rt.Cfg.Seed

	// Request channels are unbounded mailboxes: clients must be able to
	// publish their whole budget without blocking (see the deadlock note
	// above). Replies flow over one channel per client.
	small := rt.NewChannel()
	large := rt.NewChannel()
	replies := make([]*core.Channel, clients)
	for i := range replies {
		replies[i] = rt.NewChannel()
	}
	checks := make([]uint64, clients)

	elapsed := rt.Run(func(vp *core.VProc) {
		srvSpawnPool(vp, servers, total, large, small, replies)
		for c := 0; c < clients; c++ {
			c := c
			vp.Spawn(func(cvp *core.VProc, _ core.Env) {
				srvClient(cvp, seed, c, requests, small, large, replies[c], checks)
			})
		}
	})

	var check uint64
	for _, c := range checks {
		check = fnv1a(check, c)
	}
	return Result{ElapsedNs: elapsed, Check: check, Stats: rt.TotalStats()}
}

// srvSpawnPool spawns the server pool: each worker consumes a fixed share
// of the request total (shares sum to the total, so every request is
// consumed exactly once and every chain terminates).
func srvSpawnPool(vp *core.VProc, servers, total int, large, small *core.Channel, replies []*core.Channel) {
	base, extra := total/servers, total%servers
	for s := 0; s < servers; s++ {
		quota := base
		if s < extra {
			quota++
		}
		if quota == 0 {
			continue
		}
		vp.Spawn(func(svp *core.VProc, _ core.Env) {
			srvServe(svp, large, small, replies, quota)
		})
	}
}

// serveRequest is the service body every server chain shares — the
// closed-loop server and the serving engine: read the request block, charging nsPerWord of
// compute per payload word in the same advance, and fold it. It returns the
// request's two header words (client, seq) and the fold; the block (and msg
// itself) is dead by then, so the caller's reply allocation may collect them.
func serveRequest(vp *core.VProc, msg heap.Addr, nsPerWord int64) (client, seq, sum uint64) {
	p := vp.ReadBlockCompute(msg, int64(vp.ObjectLen(msg))*nsPerWord)
	for _, w := range p {
		sum = fnv1a(sum, w)
	}
	return p[0], p[1], sum
}

// sendRaw allocates words as a raw object and sends it on ch.
func sendRaw(vp *core.VProc, ch *core.Channel, words []uint64) core.SendStatus {
	s := vp.PushRoot(vp.AllocRaw(words))
	st := ch.Send(vp, s)
	vp.PopRoots(1)
	return st
}

// offerRaw is sendRaw's load-shedding form, the step every admission-controlled
// attempt (serve.go's offers and hedges) starts with: TryAllocRaw, then
// TrySend. ok is false when the allocation failed under memory pressure
// (nothing was sent).
func offerRaw(vp *core.VProc, ch *core.Channel, words []uint64) (status core.SendStatus, ok bool) {
	a, ast := vp.TryAllocRaw(words)
	if ast != core.AllocOK {
		return 0, false
	}
	s := vp.PushRoot(a)
	status = ch.TrySend(vp, s)
	vp.PopRoots(1)
	return status, true
}

// srvServe is one server worker's continuation chain: Select a request
// (large channel first), process it, reply, recurse until the quota is
// spent.
func srvServe(vp *core.VProc, large, small *core.Channel, replies []*core.Channel, quota int) {
	if quota == 0 {
		return
	}
	vp.SelectThen([]*core.Channel{large, small}, nil, func(vp *core.VProc, _ core.Env, _ int, msg heap.Addr) {
		client, seq, sum := serveRequest(vp, msg, srvComputePerWordNs)
		sendRaw(vp, replies[client], []uint64{seq, sum})
		srvServe(vp, large, small, replies, quota-1)
	})
}

// srvClient publishes the client's full request budget (never blocking:
// the request mailboxes are unbounded), then collects the replies through a
// continuation chain.
func srvClient(vp *core.VProc, seed uint64, c, requests int, small, large, reply *core.Channel, checks []uint64) {
	rng := newRand(srvClientSeed(seed, c))
	for r := 0; r < requests; r++ {
		ch, words := srvRequestShape(rng)
		buf := make([]uint64, words)
		buf[0], buf[1] = uint64(c), uint64(r)
		for i := 2; i < words; i++ {
			buf[i] = rng.Next()
		}
		dst := small
		if ch == 1 {
			dst = large
		}
		sendRaw(vp, dst, buf)
	}
	srvCollect(vp, reply, requests, c, checks, 0)
}

// srvCollect folds one reply and re-parks for the next; the fold is
// commutative (replies from different servers may interleave in any
// deterministic order, and the checksum must not depend on vproc count).
func srvCollect(vp *core.VProc, reply *core.Channel, remaining, c int, checks []uint64, acc uint64) {
	if remaining == 0 {
		checks[c] = acc
		return
	}
	reply.RecvThen(vp, nil, func(vp *core.VProc, _ core.Env, msg heap.Addr) {
		p := vp.ReadBlock(msg)
		h := fnv1a(fnv1a(0, p[0]), p[1])
		srvCollect(vp, reply, remaining-1, c, checks, acc+h)
	})
}

// srvClientSeed derives a per-client generator seed.
func srvClientSeed(seed uint64, c int) uint64 {
	return seed ^ uint64(c+1)*0x9E3779B97F4A7C15
}

// srvRequestShape draws the next request's channel (0 = small, 1 = large)
// and payload size. One request in four is large.
func srvRequestShape(rng *core.Rand) (ch, words int) {
	if rng.Next()%4 == 0 {
		return 1, srvLargeMin + int(rng.Next()%srvLargeSpan)
	}
	return 0, srvSmallMin + int(rng.Next()%srvSmallSpan)
}
