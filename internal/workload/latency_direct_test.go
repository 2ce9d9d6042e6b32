package workload

import (
	"repro/internal/core"
	"repro/internal/heap"
)

// latDirectChains is the latency harness's chains in direct style, the
// reference its step machines (latStepChains) are held to: continuation
// closures that advance once per charge. Run it through runLatency's seam.
func latDirectChains(vp *core.VProc, st *latState, servers, total int) {
	st.send = func(vp *core.VProc, c, r int) { sendRaw(vp, st.lanes[st.lane[c][r]], st.payload(vp, c, r, 2)) }
	srvSpawnPool(vp, servers, total, st.lanes, st.replies)
	for c := range st.replies {
		vp.Spawn(func(cvp *core.VProc, _ core.Env) {
			latCollect(cvp, st, c, len(st.arrival[c]))
			st.arm(cvp, c, 0)
		})
	}
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
