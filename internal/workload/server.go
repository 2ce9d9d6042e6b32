package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// Server (beyond the paper's five benchmarks): a message-passing server
// workload in the shape the paper's CML constructs exist for. N clients
// issue request/response round-trips over channels to a pool of server
// workers; requests carry mixed payload sizes split across a small-message
// and a large-message request channel, and each server receives with a
// Select over both (large requests first). Every message travels by object
// proxy, so the workload exercises the whole concurrency stack: proxy
// creation, lazy cross-vproc promotion, heap-resident pending queues
// surviving collections, rendezvous handoffs, and continuation parking.
//
// It is a burst on the open-loop latency harness (latency.go): every
// arrival is planned at instant 0, so each client submits its whole budget
// before any reply comes back, and its figure is throughput. Continuation
// chains and server quotas summing to the request total make it
// deadlock-free at any vproc count (a parked task can be resumed by
// whichever vproc receives its message; a parked frame could not).
const (
	srvClients  = 12 // client workers at scale 1
	srvRequests = 20 // requests per client at scale 1

	srvSmallMin, srvSmallSpan = 4, 12  // small request payload words
	srvLargeMin, srvLargeSpan = 48, 72 // large request payload words

	srvComputePerWordNs = 6 // server-side processing per payload word
)

// serverOptions is the workload's shape at scale: a burst (mean gap 0).
func serverOptions(scale float64) LatencyOptions {
	return LatencyOptions{Clients: scaled(srvClients, scale), Requests: scaled(srvRequests, scale), MeanGapNs: 0}
}

// RunServer executes the benchmark. Its checksum folds reply contents,
// which depend only on the seed, so it is identical at any vproc count.
func RunServer(rt *core.Runtime, scale float64) Result {
	return RunLatency(rt, serverOptions(scale)).Result
}

// srvSpawnPool spawns the server pool: each of servers (<= total) workers
// consumes a fixed share of the request total (shares sum to the total, so
// every request is consumed exactly once and every chain terminates).
func srvSpawnPool(vp *core.VProc, servers, total int, lanes [2]*core.Channel, replies []*core.Channel) {
	base, extra := total/servers, total%servers
	for s := 0; s < servers; s++ {
		quota := base
		if s < extra {
			quota++
		}
		vp.Spawn(func(svp *core.VProc, _ core.Env) {
			srvServe(svp, lanes, replies, quota)
		})
	}
}

// serveRequest is the service body every server chain shares — the latency
// harness's pool and the serving engine: read the request block, charging
// nsPerWord of compute per payload word in the same advance, and fold it. It
// returns the request's two header words (client, seq) and the fold; the
// block (and msg itself) is dead by then, so the caller's reply allocation
// may collect them.
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
// (large lane first), process it, reply, recurse until the quota is spent.
func srvServe(vp *core.VProc, lanes [2]*core.Channel, replies []*core.Channel, quota int) {
	if quota == 0 {
		return
	}
	vp.SelectThen([]*core.Channel{lanes[1], lanes[0]}, nil, func(vp *core.VProc, _ core.Env, _ int, msg heap.Addr) {
		client, seq, sum := serveRequest(vp, msg, srvComputePerWordNs)
		sendRaw(vp, replies[client], []uint64{seq, sum})
		srvServe(vp, lanes, replies, quota-1)
	})
}

// srvRequestShape draws the next request's channel (0 = small, 1 = large)
// and payload size. One request in four is large.
func srvRequestShape(rng *core.Rand) (ch, words int) {
	if rng.Next()%4 == 0 {
		return 1, srvLargeMin + int(rng.Next()%srvLargeSpan)
	}
	return 0, srvSmallMin + int(rng.Next()%srvSmallSpan)
}
