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

// srvMaxObject is the largest object of the serving workloads at any scale:
// the largest request. Replies, channels, queue nodes and proxies hold a few
// words.
func srvMaxObject(float64) int { return srvLargeMin + srvLargeSpan - 1 }

// srvRequestShape draws the next request's channel (0 = small, 1 = large)
// and payload size. One request in four is large.
func srvRequestShape(rng *core.Rand) (ch, words int) {
	if rng.Next()%4 == 0 {
		return 1, srvLargeMin + int(rng.Next()%srvLargeSpan)
	}
	return 0, srvSmallMin + int(rng.Next()%srvSmallSpan)
}
