package workload

import (
	"testing"

	"repro/internal/core"
)

// ServerSeq computes the expected checksum host-side. It is independent of
// the vproc count: the simulated run must match it at any parallelism.
func ServerSeq(seed uint64, scale float64) uint64 {
	clients := scaled(srvClients, scale)
	requests := scaled(srvRequests, scale)
	var check uint64
	for c := 0; c < clients; c++ {
		rng := newRand(srvClientSeed(seed, c))
		var acc uint64
		for r := 0; r < requests; r++ {
			_, words := srvRequestShape(rng)
			var sum uint64
			sum = fnv1a(sum, uint64(c))
			sum = fnv1a(sum, uint64(r))
			for i := 2; i < words; i++ {
				sum = fnv1a(sum, rng.Next())
			}
			acc += fnv1a(fnv1a(0, uint64(r)), sum)
		}
		check = fnv1a(check, acc)
	}
	return check
}

func TestServerMatchesReference(t *testing.T) {
	spec, _ := ByName("server")
	want := ServerSeq(testConfig(t, 1).Seed, 0.5)
	for _, nv := range []int{1, 2, 4} {
		got := runAt(t, spec, nv, 0.5, nv != 1)
		if got.Check != want {
			t.Errorf("server at %d vprocs: check %#x, want %#x", nv, got.Check, want)
		}
	}
}

func TestServerExercisesChannels(t *testing.T) {
	spec, _ := ByName("server")
	res := runAt(t, spec, 4, 1, false)
	clients, requests, _ := serverParams(4, 1)
	total := int64(clients * requests)
	// Every request and every reply crosses a channel.
	if got := res.Stats.ChanSends; got != 2*total {
		t.Errorf("sends = %d, want %d (requests+replies)", got, 2*total)
	}
	if got := res.Stats.ChanRecvs; got != 2*total {
		t.Errorf("recvs = %d, want %d", got, 2*total)
	}
	if res.Stats.ChanHandoffs == 0 {
		t.Error("expected some rendezvous handoffs to parked receivers")
	}
	if res.Stats.Promotions == 0 {
		t.Error("expected cross-vproc messages to force promotions")
	}
	if res.Stats.AllocWords == 0 {
		t.Error("no allocation")
	}
}

// TestServerSurvivesGCPressure runs the workload with tiny heaps and a low
// global trigger so messages are in flight across minor, major and global
// collections, with the full-heap verifier on — the workload-scale version
// of the channel GC regression test.
func TestServerSurvivesGCPressure(t *testing.T) {
	spec, _ := ByName("server")
	cfg := testConfig(t, 3)
	cfg.LocalHeapWords = 2048
	cfg.ChunkWords = 512
	cfg.GlobalTriggerWords = 16 * 512
	cfg.Debug = true
	rt := core.MustNewRuntime(cfg)
	res := spec.Run(rt, 1)
	if err := rt.VerifyHeap(); err != nil {
		t.Fatalf("heap invariants: %v", err)
	}
	if want := ServerSeq(cfg.Seed, 1); res.Check != want {
		t.Errorf("check %#x, want %#x", res.Check, want)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Error("expected global collections under this configuration")
	}
}
