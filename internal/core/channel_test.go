package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/heap"
)

// Cap reports the capacity bound (0 = unbounded).
func (ch *Channel) Cap() int { return ch.cap }

// TestChannelMessageSurvivesGlobalGC is the regression test for the headline
// bug of this change: a sent-but-unreceived message must survive a *global*
// collection. The seed representation kept the pending proxies in a plain Go
// slice the collector never traced: globalScanRoots forwarded the owner's
// proxy registry, but the channel's copy kept naming the from-space chunk,
// which is zeroed and reused after the collection — Recv then dereferenced a
// stale address. With channel state heap-resident (and the proxy local slot
// forwarded when a preceding major collection promoted the message), the
// message is forwarded with everything else.
func TestChannelMessageSurvivesGlobalGC(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	ch := rt.NewChannel()
	rt.Run(func(vp *VProc) {
		msg := vp.AllocRaw([]uint64{0xDEAD, 0xBEEF, 42})
		s := vp.PushRoot(msg)
		ch.Send(vp, s)
		vp.PopRoots(1) // the channel is now the only path to the message

		// Force several global collections while the message is pending:
		// promote garbage trees until the trigger fires, with churn so
		// minor/major phases interleave.
		for i := 0; i < 8; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 500, 6)
		}

		got, ok := ch.TryRecv(vp)
		if !ok {
			t.Fatal("pending message lost")
		}
		if vp.LoadWord(got, 0) != 0xDEAD || vp.LoadWord(got, 1) != 0xBEEF || vp.LoadWord(got, 2) != 42 {
			t.Error("message corrupted across global collections")
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestChannelManyPendingAcrossGlobalGC stresses the heap-resident queue
// chain itself: many messages of mixed sizes pending across collections,
// received in FIFO order afterwards.
func TestChannelManyPendingAcrossGlobalGC(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	ch := rt.NewChannel()
	const n = 40
	rt.Run(func(vp *VProc) {
		for i := 0; i < n; i++ {
			words := make([]uint64, 1+i%7)
			for j := range words {
				words[j] = uint64(i)<<8 | uint64(j)
			}
			m := vp.AllocRaw(words)
			s := vp.PushRoot(m)
			ch.Send(vp, s)
			vp.PopRoots(1)
			if i%4 == 0 {
				b := buildTree(vp, 6, uint64(i))
				bs := vp.PushRoot(b)
				vp.PromoteRoot(bs)
				vp.PopRoots(1)
				churn(vp, 300, 5)
			}
		}
		if ch.Len() != n {
			t.Fatalf("pending = %d, want %d", ch.Len(), n)
		}
		// The host-side diagnostic view of the chain must agree: n live
		// proxies, all registered with the sender, in FIFO order.
		proxies := ch.PendingProxies()
		if len(proxies) != n {
			t.Fatalf("PendingProxies = %d entries, want %d", len(proxies), n)
		}
		for i, pa := range proxies {
			if slot := heap.ProxySlot(rt.Space.Payload(pa)); slot < 0 || vp.proxies[slot] != pa {
				t.Fatalf("pending proxy %d (%v) not in the sender's registry", i, pa)
			}
		}
		for i := 0; i < n; i++ {
			got, ok := ch.TryRecv(vp)
			if !ok {
				t.Fatalf("message %d missing", i)
			}
			ln := vp.ObjectLen(got)
			if ln != 1+i%7 {
				t.Fatalf("message %d: length %d, want %d (FIFO order broken?)", i, ln, 1+i%7)
			}
			for j := 0; j < ln; j++ {
				if vp.LoadWord(got, j) != uint64(i)<<8|uint64(j) {
					t.Fatalf("message %d word %d corrupted", i, j)
				}
			}
		}
		if _, ok := ch.TryRecv(vp); ok {
			t.Error("channel should be empty")
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
}

// TestBlockingRecvHandoff checks the rendezvous fast path: a parked receiver
// gets the proxy handed to it directly, bypassing the pending chain.
func TestBlockingRecvHandoff(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	ch := rt.NewChannel()
	var got uint64
	var handedOff bool
	rt.Run(func(vp *VProc) {
		recv := vp.Spawn(func(rvp *VProc, _ Env) {
			m := ch.Recv(rvp)
			got = rvp.LoadWord(m, 0)
		})
		vp.Compute(1_000_000) // let vproc 1 steal the receiver and park
		msg := vp.AllocRaw([]uint64{77})
		s := vp.PushRoot(msg)
		ch.Send(vp, s)
		handedOff = vp.Stats.ChanHandoffs > 0
		vp.PopRoots(1)
		vp.Join(recv)
	})
	if got != 77 {
		t.Errorf("received %d, want 77", got)
	}
	if !handedOff {
		t.Error("send to a parked receiver should be a direct handoff")
	}
	if ch.Len() != 0 {
		t.Error("handoff must bypass the pending chain")
	}
}

// TestSelectPrefersPendingInOrder: Select takes from the first channel with
// a pending message, in argument order.
func TestSelectPrefersPendingInOrder(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	a, b := rt.NewChannel(), rt.NewChannel()
	rt.Run(func(vp *VProc) {
		m1 := vp.AllocRaw([]uint64{1})
		s1 := vp.PushRoot(m1)
		b.Send(vp, s1)
		vp.PopRoots(1)

		which, got := vp.Select(a, b)
		if which != 1 {
			t.Errorf("Select chose %d, want 1", which)
		}
		if vp.LoadWord(got, 0) != 1 {
			t.Error("wrong message")
		}

		m2 := vp.AllocRaw([]uint64{2})
		s2 := vp.PushRoot(m2)
		a.Send(vp, s2)
		m3 := vp.AllocRaw([]uint64{3})
		s3 := vp.PushRoot(m3)
		b.Send(vp, s3)
		vp.PopRoots(2)
		which, got = vp.Select(a, b)
		if which != 0 || vp.LoadWord(got, 0) != 2 {
			t.Errorf("Select = (%d, %d), want (0, 2)", which, vp.LoadWord(got, 0))
		}
	})
}

// TestSelectParkedAcrossChannels: a parked Select is claimed by whichever
// channel delivers first, and the stale registration on the other channel
// does not disturb later sends.
func TestSelectParkedAcrossChannels(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	a, b := rt.NewChannel(), rt.NewChannel()
	var which int
	var got uint64
	rt.Run(func(vp *VProc) {
		sel := vp.Spawn(func(svp *VProc, _ Env) {
			w, m := svp.Select(a, b)
			which = w
			got = svp.LoadWord(m, 0)
		})
		vp.Compute(1_000_000) // selector parks on both channels
		m := vp.AllocRaw([]uint64{9})
		s := vp.PushRoot(m)
		b.Send(vp, s)
		vp.PopRoots(1)
		vp.Join(sel)

		// The stale registration on a must be skipped: this send should
		// enqueue (no parked receiver is live anymore).
		m2 := vp.AllocRaw([]uint64{10})
		s2 := vp.PushRoot(m2)
		a.Send(vp, s2)
		vp.PopRoots(1)
		if got2, ok := a.TryRecv(vp); !ok || vp.LoadWord(got2, 0) != 10 {
			t.Error("send after a stale select registration lost its message")
		}
	})
	if which != 1 || got != 9 {
		t.Errorf("Select = (%d, %d), want (1, 9)", which, got)
	}
}

// TestMailboxCapacityBlocksSender: a bounded mailbox holds at most cap
// messages; the sender makes progress only as the receiver drains.
func TestMailboxCapacityBlocksSender(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	mb := rt.NewMailbox(2)
	const n = 10
	var sum uint64
	var maxLen int
	rt.Run(func(vp *VProc) {
		recv := vp.Spawn(func(rvp *VProc, _ Env) {
			for i := 0; i < n; i++ {
				if l := mb.Len(); l > maxLen {
					maxLen = l
				}
				m := mb.Recv(rvp)
				sum += rvp.LoadWord(m, 0)
				rvp.Compute(5000) // drain slower than the sender fills
			}
		})
		vp.Compute(500_000) // let vproc 1 steal the receiver
		for i := 1; i <= n; i++ {
			m := vp.AllocRaw([]uint64{uint64(i)})
			s := vp.PushRoot(m)
			mb.Send(vp, s)
			if l := mb.Len(); l > mb.Cap() {
				t.Errorf("mailbox holds %d > cap %d", l, mb.Cap())
			}
			vp.PopRoots(1)
		}
		vp.Join(recv)
	})
	if want := uint64(n * (n + 1) / 2); sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if maxLen > 2 {
		t.Errorf("observed %d pending > capacity 2", maxLen)
	}
}

// TestRecvThenContinuationChain: continuation receives run as tasks, so a
// consumer that is "below" its producer on the same vproc cannot wedge —
// the single-vproc pipeline completes entirely through parked tasks.
func TestRecvThenContinuationChain(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	const n = 5
	var sum uint64
	var count int
	var pump func(vp *VProc, k int)
	pump = func(vp *VProc, k int) {
		if k == 0 {
			return
		}
		ch.RecvThen(vp, nil, func(vp *VProc, _ Env, msg heap.Addr) {
			sum += vp.LoadWord(msg, 0)
			count++
			pump(vp, k-1)
		})
	}
	rt.Run(func(vp *VProc) {
		pump(vp, n) // park the consumer before anything is sent
		for i := 1; i <= n; i++ {
			m := vp.AllocRaw([]uint64{uint64(i)})
			s := vp.PushRoot(m)
			ch.Send(vp, s)
			vp.PopRoots(1)
		}
	})
	if count != n || sum != n*(n+1)/2 {
		t.Errorf("continuation chain: count=%d sum=%d, want %d and %d", count, sum, n, n*(n+1)/2)
	}
}

// TestSelectThenEnvSurvivesCollections: the captured environment of a parked
// continuation is a GC root; it must be forwarded by minor, major and global
// collections while parked.
func TestSelectThenEnvSurvivesCollections(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	ch := rt.NewChannel()
	var envSum, msgVal uint64
	rt.Run(func(vp *VProc) {
		captured := vp.AllocRaw([]uint64{400, 500})
		cs := vp.PushRoot(captured)
		vp.SelectThen([]*Channel{ch}, []heap.Addr{vp.Root(cs)}, func(vp *VProc, env Env, _ int, msg heap.Addr) {
			c := env.Get(vp, 0)
			envSum = vp.LoadWord(c, 0) + vp.LoadWord(c, 1)
			msgVal = vp.LoadWord(msg, 0)
		})
		vp.PopRoots(1) // the parked continuation is now the only root

		// Collections of every flavor while the continuation is parked.
		for i := 0; i < 10; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 400, 6)
		}

		m := vp.AllocRaw([]uint64{7})
		s := vp.PushRoot(m)
		ch.Send(vp, s)
		vp.PopRoots(1)
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if envSum != 900 {
		t.Errorf("captured environment corrupted: sum=%d, want 900", envSum)
	}
	if msgVal != 7 {
		t.Errorf("message = %d, want 7", msgVal)
	}
}

// TestChannelCrossVProcAfterGlobalGC: a message promoted and then moved by a
// global collection is still received intact by another vproc.
func TestChannelCrossVProcAfterGlobalGC(t *testing.T) {
	cfg := stressConfig(t, 2)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	ch := rt.NewChannel()
	var got uint64
	rt.Run(func(vp *VProc) {
		msg := vp.AllocRaw([]uint64{0xACE})
		s := vp.PushRoot(msg)
		ch.Send(vp, s)
		vp.PopRoots(1)

		recv := vp.Spawn(func(rvp *VProc, _ Env) {
			got = rvp.LoadWord(ch.Recv(rvp), 0)
		})

		// Global collections before the receiver (stolen by vproc 1, or
		// run inline later) picks the message up.
		for i := 0; i < 6; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 400, 6)
		}
		vp.Join(recv)
	})
	if got != 0xACE {
		t.Errorf("received %#x, want 0xACE", got)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestMailboxCapacityConcurrentSenders: the capacity bound must hold with
// several senders racing for the last slot (the check and the enqueue are
// separated by charged advances; the commit re-verifies).
func TestMailboxCapacityConcurrentSenders(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 4))
	mb := rt.NewMailbox(2)
	const perSender = 12
	var sum uint64
	rt.Run(func(vp *VProc) {
		for s := 0; s < 2; s++ {
			salt := uint64(s+1) * 1000
			vp.Spawn(func(svp *VProc, _ Env) {
				for i := 1; i <= perSender; i++ {
					m := svp.AllocRaw([]uint64{salt + uint64(i)})
					ms := svp.PushRoot(m)
					mb.Send(svp, ms)
					if l := mb.Len(); l > mb.Cap() {
						t.Errorf("mailbox holds %d > cap %d", l, mb.Cap())
					}
					svp.PopRoots(1)
				}
			})
		}
		vp.Compute(200_000) // let both senders get stolen and race
		for i := 0; i < 2*perSender; i++ {
			if l := mb.Len(); l > mb.Cap() {
				t.Errorf("observed %d pending > cap %d", l, mb.Cap())
			}
			m := mb.Recv(vp)
			sum += vp.LoadWord(m, 0)
			vp.Compute(3000)
		}
	})
	var want uint64
	for s := 0; s < 2; s++ {
		for i := 1; i <= perSender; i++ {
			want += uint64(s+1)*1000 + uint64(i)
		}
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// leaveChunkRoom promotes raw fillers out of vp's local heap until its
// current chunk has exactly room words left.
func leaveChunkRoom(vp *VProc, room int) {
	for {
		left := 0
		if c := vp.curChunk; c != nil {
			left = c.Region.Size - c.Top
		}
		switch n := left - room - 1; {
		case n == -1:
			return
		case n >= 0:
			vp.Promote(vp.AllocRawN(min(n, 256)))
		default: // less than one object's room to spare: fetch a new chunk
			vp.Promote(vp.AllocRawN(left))
		}
	}
}

// sendDuringFetch sends one message from vproc 0 on ch, whose record it
// creates first, with the proxy fitting in vproc 0's current chunk and the
// queue node not: the node's chunk fetch is the send's one advance that
// hands the run to other vprocs between the probe and the commit.
// interrupt runs on vproc 1 within 10 ns of the fetch's start, in the fetch.
// It returns the send's status and ch's length when the send returns.
func sendDuringFetch(t *testing.T, ch *Channel, try bool, interrupt func(vp *VProc)) (st SendStatus, n int) {
	rt := ch.rt
	armed, base := false, int64(0)
	rt.Run(func(vp *VProc) {
		ch.record(vp)
		vp.Spawn(func(ivp *VProc, _ Env) {
			leaveChunkRoom(ivp, 64) // interrupt's own sends fetch nothing
			for !armed || vp.Stats.ChunksRequested == base {
				ivp.Compute(10)
			}
			interrupt(ivp)
		})
		vp.Compute(50_000) // vproc 1 steals the interrupter
		m := vp.PushRoot(vp.AllocRaw([]uint64{7}))
		leaveChunkRoom(vp, heap.ProxySizeWords+1)
		armed, base = true, vp.Stats.ChunksRequested
		if try {
			st = ch.TrySend(vp, m)
		} else {
			st = ch.Send(vp, m)
		}
		if vp.Stats.ChunksRequested != base+1 {
			t.Errorf("the send fetched %d chunks, want the queue node's one", vp.Stats.ChunksRequested-base)
		}
		n = ch.Len()
	})
	return st, n
}

// TestChannelSendRechecksAfterChunkFetch: a send's queue-node chunk fetch may
// advance, and the send re-checks what the fetch let other vprocs change
// before it commits. A Close landing in the fetch sheds the message instead
// of linking it into a dead record; a sender taking the mailbox's last slot
// in the fetch makes TrySend report SendFull and Send probe again and wait
// for the receive, instead of overfilling the mailbox.
func TestChannelSendRechecksAfterChunkFetch(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		ch := MustNewRuntime(stressConfig(t, 2)).NewChannel()
		st, n := sendDuringFetch(t, ch, false, func(*VProc) { ch.Close() })
		if st != SendClosed || n != 0 {
			t.Errorf("send across a Close in its chunk fetch: status %v, %d pending; want SendClosed, 0", st, n)
		}
	})
	for _, tc := range []struct {
		name string
		try  bool
		want SendStatus
	}{{"full/try", true, SendFull}, {"full/wait", false, SendOK}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := MustNewRuntime(stressConfig(t, 2))
			mb := rt.NewMailbox(1)
			var other SendStatus
			var got uint64
			st, n := sendDuringFetch(t, mb, tc.try, func(ivp *VProc) {
				other = mb.TrySend(ivp, ivp.PushRoot(ivp.AllocRaw([]uint64{8})))
				ivp.PopRoots(1)
				// Free the slot long after the fetch: a waiting Send
				// commits into it.
				ivp.Compute(5_000)
				got = ivp.LoadWord(mb.Recv(ivp), 0)
			})
			if other != SendOK || got != 8 || st != tc.want || n != 1 {
				t.Errorf("send across a sender taking the last slot in its chunk fetch: status %v, %d pending (the other sender's %v, received %d); want %v, 1 (SendOK, 8)",
					st, n, other, got, tc.want)
			}
		})
	}
}

// TestChannelFullMailboxWakesEverySender: a pop frees one slot, and every
// sender waiting on the full mailbox probes for it. Vproc 0 fills the
// mailbox, two senders stolen by vprocs 1 and 2 wait on it, and vproc 0
// receives three times with no work between receives: after its first pop
// it parks again before the woken senders run, so the first of them hands
// its message to that receive instead of taking the freed slot. A pop that
// wakes only that one sender strands the other on an empty mailbox, and the
// run ends in a deadlock.
func TestChannelFullMailboxWakesEverySender(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 3))
	mb := rt.NewMailbox(1)
	var sum uint64
	ran := map[int]bool{}
	rt.Run(func(vp *VProc) {
		s := vp.PushRoot(vp.AllocRaw([]uint64{1}))
		mb.Send(vp, s)
		vp.PopRoots(1)
		for w := uint64(10); w <= 100; w *= 10 {
			vp.Spawn(func(svp *VProc, _ Env) {
				ran[svp.ID] = true
				ms := svp.PushRoot(svp.AllocRaw([]uint64{w}))
				if st := mb.Send(svp, ms); st != SendOK {
					t.Errorf("send of %d: %v", w, st)
				}
				svp.PopRoots(1)
			})
		}
		vp.Compute(200_000) // both senders are stolen and wait on the full mailbox
		for i := 0; i < 3; i++ {
			sum += vp.LoadWord(mb.Recv(vp), 0)
		}
	})
	if sum != 111 {
		t.Errorf("sum = %d, want 111", sum)
	}
	if !ran[1] || !ran[2] {
		t.Errorf("senders ran on vprocs %v, want 1 and 2", ran)
	}
}

// TestChannelCloseReleasesRecord: Close unpins the record so a global
// collection reclaims it; a closed channel is reusable and starts empty.
func TestChannelCloseReleasesRecord(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	rt.Run(func(vp *VProc) {
		// Dynamically created channels, used and closed.
		for i := 0; i < 10; i++ {
			ch := rt.NewChannel()
			m := vp.AllocRaw([]uint64{uint64(i)})
			s := vp.PushRoot(m)
			ch.Send(vp, s)
			vp.PopRoots(1)
			if got, ok := ch.TryRecv(vp); !ok || vp.LoadWord(got, 0) != uint64(i) {
				t.Fatalf("channel %d round trip failed", i)
			}
			ch.Close()
		}
		if n := len(rt.globalRoots); n != 0 {
			t.Errorf("closed channels left %d pinned roots", n)
		}
		// Records become garbage at the next global collection.
		for i := 0; i < 8; i++ {
			b := buildTree(vp, 6, uint64(i))
			bs := vp.PushRoot(b)
			vp.PromoteRoot(bs)
			vp.PopRoots(1)
			churn(vp, 500, 6)
		}
		// Close is permanent: later operations observe it as a status, and
		// nothing resurrects the released record.
		ch := rt.NewChannel()
		ch.Close()
		if !ch.Closed() {
			t.Error("Closed() false after Close")
		}
		if _, ok := ch.TryRecv(vp); ok {
			t.Error("closed channel should be empty")
		}
		if got := ch.Recv(vp); got != 0 {
			t.Errorf("Recv on closed channel = %#x, want 0", got)
		}
		m := vp.AllocRaw([]uint64{99})
		s := vp.PushRoot(m)
		if st := ch.Send(vp, s); st != SendClosed {
			t.Errorf("Send on closed channel = %v, want closed", st)
		}
		vp.PopRoots(1)
		if got := len(vp.proxies); got != 0 {
			t.Errorf("shed send left %d proxies registered", got)
		}
		if ch.addr != 0 {
			t.Error("closed channel re-acquired a heap record")
		}
	})
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestBoundedSendSurvivesGlobalGCWhileWaiting: a sender blocked on a full
// mailbox services the scheduler, which can run work that forces global
// collections; the in-flight message's proxy must be re-read through the
// root stack, not a stale host-side copy.
func TestBoundedSendSurvivesGlobalGCWhileWaiting(t *testing.T) {
	cfg := stressConfig(t, 1)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	mb := rt.NewMailbox(1)
	var first uint64
	rt.Run(func(vp *VProc) {
		m1 := vp.AllocRaw([]uint64{111})
		s1 := vp.PushRoot(m1)
		mb.Send(vp, s1)
		vp.PopRoots(1) // mailbox is now full

		// The blocked Send's scheduler loop runs these (LIFO): first
		// the GC forcer, then the drainer that frees the capacity slot.
		vp.Spawn(func(dvp *VProc, _ Env) {
			got, ok := mb.TryRecv(dvp)
			if !ok {
				t.Error("drainer found the mailbox empty")
				return
			}
			first = dvp.LoadWord(got, 0)
		})
		vp.Spawn(func(gvp *VProc, _ Env) {
			for i := 0; i < 10; i++ {
				b := buildTree(gvp, 6, uint64(i))
				bs := gvp.PushRoot(b)
				gvp.PromoteRoot(bs)
				gvp.PopRoots(1)
				churn(gvp, 400, 6)
			}
		})

		m2 := vp.AllocRaw([]uint64{222})
		s2 := vp.PushRoot(m2)
		mb.Send(vp, s2) // blocks until the drainer runs; GCs happen first
		vp.PopRoots(1)

		got := mb.Recv(vp)
		if vp.LoadWord(got, 0) != 222 {
			t.Errorf("second message = %d, want 222", vp.LoadWord(got, 0))
		}
	})
	if first != 111 {
		t.Errorf("first message = %d, want 111", first)
	}
	if rt.Stats.GlobalGCs == 0 {
		t.Fatal("test did not force a global collection during the wait")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestCloseDropsPendingProxies: closing a channel with unreceived messages
// deregisters their proxies from the senders, so the payloads stop being
// GC roots.
func TestCloseDropsPendingProxies(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	rt.Run(func(vp *VProc) {
		ch := rt.NewChannel()
		for i := 0; i < 5; i++ {
			m := vp.AllocRaw([]uint64{uint64(i)})
			s := vp.PushRoot(m)
			ch.Send(vp, s)
			vp.PopRoots(1)
		}
		if got := len(vp.proxies); got != 5 {
			t.Fatalf("registry holds %d proxies, want 5", got)
		}
		msgs := ch.PendingProxies()
		ch.Close()
		if got := len(vp.proxies); got != 0 {
			t.Errorf("registry holds %d proxies after Close, want 0", got)
		}
		for _, pa := range msgs {
			if heap.ProxySlot(rt.Space.Payload(pa)) != -1 {
				t.Errorf("proxy %v still reads registered after Close", pa)
			}
		}
		churn(vp, 2000, 4) // the dropped payloads must not confuse collections
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestCloseWakesParkedWaiter: Close with a parked blocking receiver is no
// longer a crash — the waiter wakes with a nil message (Recv returns 0),
// and later sends observe SendClosed instead of stranding or panicking.
func TestCloseWakesParkedWaiter(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 2))
	ch := rt.NewChannel()
	got := heap.Addr(0xdead)
	rt.Run(func(vp *VProc) {
		recv := vp.Spawn(func(rvp *VProc, _ Env) {
			got = ch.Recv(rvp)
		})
		vp.Compute(1_000_000) // let vproc 1 steal the receiver and park

		ch.Close()

		// The close woke the waiter; this send sheds instead of handing off.
		m := vp.AllocRaw([]uint64{55})
		s := vp.PushRoot(m)
		if st := ch.Send(vp, s); st != SendClosed {
			t.Errorf("Send after Close = %v, want closed", st)
		}
		vp.PopRoots(1)
		vp.Join(recv)
	})
	if got != 0 {
		t.Errorf("parked receiver got %#x, want 0 (close status)", got)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestCloseWakesParkedContinuation: a parked RecvThen continuation runs with
// msg == 0 when the channel closes, and the runtime still quiesces (the
// outstanding count transfers to the close task).
func TestCloseWakesParkedContinuation(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	ran, sawNil := false, false
	rt.Run(func(vp *VProc) {
		ch.RecvThen(vp, nil, func(vp *VProc, _ Env, msg heap.Addr) {
			ran = true
			sawNil = msg == 0
		})
		vp.Compute(10_000)
		ch.Close()
	})
	if !ran {
		t.Fatal("parked continuation never ran after Close")
	}
	if !sawNil {
		t.Error("continuation saw a non-nil message from a closed channel")
	}
}

// TestTrySendShedsWhenFull: TrySend on a full mailbox reports SendFull
// without blocking, drops the message proxy, and leaves the pending chain
// intact; after draining one slot it succeeds again.
func TestTrySendShedsWhenFull(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	mb := rt.NewMailbox(2)
	rt.Run(func(vp *VProc) {
		for i := 0; i < 2; i++ {
			m := vp.AllocRaw([]uint64{uint64(i)})
			s := vp.PushRoot(m)
			if st := mb.TrySend(vp, s); st != SendOK {
				t.Fatalf("TrySend %d = %v, want ok", i, st)
			}
			vp.PopRoots(1)
		}
		m := vp.AllocRaw([]uint64{99})
		s := vp.PushRoot(m)
		if st := mb.TrySend(vp, s); st != SendFull {
			t.Errorf("TrySend on full mailbox = %v, want full", st)
		}
		vp.PopRoots(1)
		if got := vp.Stats.ChanSheds; got != 1 {
			t.Errorf("ChanSheds = %d, want 1", got)
		}
		if got := mb.Len(); got != 2 {
			t.Errorf("pending = %d after shed, want 2", got)
		}
		if got, ok := mb.TryRecv(vp); !ok || vp.LoadWord(got, 0) != 0 {
			t.Fatal("drain lost the FIFO head")
		}
		m = vp.AllocRaw([]uint64{3})
		s = vp.PushRoot(m)
		if st := mb.TrySend(vp, s); st != SendOK {
			t.Errorf("TrySend after drain = %v, want ok", st)
		}
		vp.PopRoots(1)
	})
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestCloseUnderLoad is the close-under-load regression test: receivers
// parked via RecvThen, senders mid-flight on bounded mailboxes, and GC
// pressure churning, while a fault-plan close lands at a chosen instant.
// Every send outcome must be a status (never a panic), every continuation
// must run (quiescence), and the books must balance: sends = deliveries +
// sheds.
func TestCloseUnderLoad(t *testing.T) {
	cfg := stressConfig(t, 4)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	lane := rt.NewMailbox(2)
	var delivered, closedNil int64
	var okSends, fullSends, closedSends int64
	rt.Run(func(vp *VProc) {
		// Park a pool of continuation receivers.
		for i := 0; i < 8; i++ {
			lane.RecvThen(vp, nil, func(vp *VProc, _ Env, msg heap.Addr) {
				if msg == 0 {
					closedNil++
				} else {
					delivered++
				}
			})
		}
		// Senders on every vproc, racing the close.
		for i := 0; i < 16; i++ {
			vp.Spawn(func(svp *VProc, _ Env) {
				for j := 0; j < 4; j++ {
					m := svp.AllocRaw([]uint64{uint64(j)})
					s := svp.PushRoot(m)
					switch lane.TrySend(svp, s) {
					case SendOK:
						okSends++
					case SendFull:
						fullSends++
					case SendClosed:
						closedSends++
					}
					svp.PopRoots(1)
					churn(svp, 100, 5)
				}
			})
		}
		// The close lands mid-traffic via the fault plan (the workload's
		// natural makespan is ~24us; 8us is mid-flight).
		p := (&FaultPlan{}).CloseAt(0, 8_000, lane)
		rt.InstallFaults(p)
	})
	total := rt.TotalStats()
	if delivered+closedNil != 8 {
		t.Errorf("continuations ran %d+%d times, want 8", delivered, closedNil)
	}
	if okSends+fullSends+closedSends != 64 {
		t.Errorf("send statuses %d+%d+%d, want 64 total", okSends, fullSends, closedSends)
	}
	if total.ChanSheds != fullSends+closedSends {
		t.Errorf("ChanSheds = %d, want %d (full %d + closed %d)",
			total.ChanSheds, fullSends+closedSends, fullSends, closedSends)
	}
	// Every OK send was either handed to a continuation or discarded with
	// the pending chain at close time — never lost while the lane was open.
	if delivered > okSends {
		t.Errorf("delivered %d messages from %d successful sends", delivered, okSends)
	}
	if closedSends == 0 {
		t.Error("no send observed the close; move the close earlier")
	}
	if !lane.Closed() {
		t.Error("fault-plan close never fired")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// TestCloseSkipsStaleRegistrations: stale (already claimed) ring entries do
// not block Close — only a live waiter is a programming error.
func TestCloseSkipsStaleRegistrations(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	a, b := rt.NewChannel(), rt.NewChannel()
	rt.Run(func(vp *VProc) {
		// Park a select on both channels, then deliver via b: the entry on
		// a goes stale.
		vp.SelectThen([]*Channel{a, b}, nil, func(vp *VProc, _ Env, _ int, _ heap.Addr) {})
		m := vp.AllocRaw([]uint64{1})
		s := vp.PushRoot(m)
		b.Send(vp, s)
		vp.PopRoots(1)
		vp.SleepFor(50_000) // run the continuation task

		a.Close() // must not panic: the registration on a is stale
		b.Close()
	})
}

// TestTrySendRacesClose: senders spin TrySend on a tiny lane while another
// task closes it mid-traffic — the exact race the overload harness's
// admission path runs under -race. Every outcome must be a status, the
// statuses must partition the attempts, and SendClosed must be sticky: once
// a sender observes it, every later attempt observes it too.
func TestTrySendRacesClose(t *testing.T) {
	cfg := stressConfig(t, 4)
	cfg.GlobalTriggerWords = 4 * cfg.ChunkWords
	rt := MustNewRuntime(cfg)
	lane := rt.NewMailbox(1)
	const senders, attempts = 8, 32
	var ok, full, closed int64
	rt.Run(func(vp *VProc) {
		for i := 0; i < senders; i++ {
			vp.Spawn(func(svp *VProc, _ Env) {
				sawClosed := false
				for j := 0; j < attempts; j++ {
					m := svp.AllocRaw([]uint64{uint64(j)})
					s := svp.PushRoot(m)
					switch st := lane.TrySend(svp, s); st {
					case SendOK:
						ok++
						if sawClosed {
							t.Errorf("TrySend succeeded after this sender saw SendClosed")
						}
						// Drain our own message so the lane refills: the
						// OK/Full boundary keeps moving under the close.
						lane.TryRecv(svp)
					case SendFull:
						full++
						if sawClosed {
							t.Errorf("SendFull after SendClosed — the status went backwards")
						}
					case SendClosed:
						closed++
						sawClosed = true
						if !lane.Closed() {
							t.Errorf("SendClosed from an open lane")
						}
					default:
						t.Errorf("unknown send status %v", st)
					}
					svp.PopRoots(1)
					churn(svp, 60, 4)
				}
			})
		}
		vp.Spawn(func(cvp *VProc, _ Env) {
			cvp.SleepFor(4_000)
			lane.Close()
		})
	})
	if got := ok + full + closed; got != senders*attempts {
		t.Errorf("statuses %d+%d+%d = %d, want %d attempts", ok, full, closed, got, senders*attempts)
	}
	if closed == 0 {
		t.Error("no sender observed the close; move it earlier")
	}
	if ok == 0 {
		t.Error("no sender got through before the close; move it later")
	}
	if !lane.Closed() {
		t.Error("lane never closed")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

// wordSend is a step continuation that allocates one word through the cost
// form and sends it on ch through SendOp, counting the sends it completes.
type wordSend struct {
	ch    *Channel
	word  uint64
	phase int8
	a     heap.Addr
	op    SendOp
	sent  int
}

func (m *wordSend) Start(*VProc, int, heap.Addr) {}

func (m *wordSend) Step(vp *VProc, direct bool) (int64, StepStatus) {
	for {
		switch m.phase {
		case 0:
			a, c, ok := vp.CostAllocRaw([]uint64{m.word}, direct)
			if !ok {
				return 0, StepDecline
			}
			m.a, m.phase = a, 1
			return c, StepCharge
		case 1:
			m.op.Begin(m.ch, vp.PushRoot(m.a))
			m.phase = 2
		case 2:
			d, st := m.op.Step(vp, direct)
			if st != StepDone {
				return d, st
			}
			vp.PopRoots(1)
			m.sent++
			m.phase = 3
		default:
			return 0, StepDone
		}
	}
}

// TestChannelStepSendWaitsOutsideItsTask: a step task whose send finds its
// mailbox full declines, and the turn's direct rerun waits for capacity on
// the vproc's own stack. That wait runs a scheduler loop inside the rerun,
// which must not run the in-flight task's own turns: each one would probe
// again and decline again. Drained, the word is sent once, after the drainer
// frees the slot. Closed during the wait, the rerun itself finishes the send
// (it sheds) and the task, which then ends on the vproc's stack.
func TestChannelStepSendWaitsOutsideItsTask(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status SendStatus
		want   []uint64 // what the drainer receives
	}{
		{"drained", SendOK, []uint64{7, 42}},
		{"closed", SendClosed, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stressConfig(t, 2)
			cfg.Debug = false
			rt := MustNewRuntime(cfg)
			mb := rt.NewMailbox(1)
			send := &wordSend{ch: mb, word: 42}
			var got []uint64
			rt.Run(func(vp *VProc) {
				// Filling the mailbox leaves vproc 0 a chunk with room for
				// the step send's proxy.
				s := vp.PushRoot(vp.AllocRaw([]uint64{7}))
				if st := mb.Send(vp, s); st != SendOK {
					t.Fatalf("first send: %v", st)
				}
				vp.PopRoots(1)
				vp.Spawn(func(dvp *VProc, _ Env) {
					dvp.SleepUntil(200_000)
					if tc.status == SendClosed {
						mb.Close()
						return
					}
					for len(got) < 2 {
						if m, ok := mb.TryRecv(dvp); ok {
							got = append(got, dvp.LoadWord(m, 0))
							continue
						}
						dvp.Compute(1_000)
					}
				})
				vp.Compute(50_000) // let vproc 1 steal the drainer
				vp.AtSteps(vp.Now(), send)
			})
			if send.sent != 1 || send.op.status != tc.status {
				t.Errorf("the step task sent %d times, status %v; want once, %v", send.sent, send.op.status, tc.status)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("drainer received %v, want %v", got, tc.want)
			}
			if n := rt.StepDeclines().Mailbox; n != 1 {
				t.Errorf("%d Mailbox declines, want 1", n)
			}
			if n := len(rt.freeSteps); n != 1 {
				t.Errorf("%d step tasks recycled, want the one that ended", n)
			}
			if err := rt.VerifyHeap(); err != nil {
				t.Errorf("heap invariants: %v", err)
			}
		})
	}
}

// TestVerifierChecksChannelQueues: VerifyHeap walks every live channel's
// pending queue. A channel holds three pending messages after one pop; with
// its head pointed back at the popped node (what a collection that undoes a
// pop leaves), and then with its tail broken, VerifyHeap must name the
// channel each time, and pass once the record is restored.
func TestVerifierChecksChannelQueues(t *testing.T) {
	rt := MustNewRuntime(stressConfig(t, 1))
	ch := rt.NewChannel()
	rt.Run(func(vp *VProc) {
		for i := range 4 {
			ch.Send(vp, vp.PushRoot(vp.AllocRaw([]uint64{uint64(i)})))
			vp.PopRoots(1)
		}
		popped := heap.Addr(rt.Space.Payload(ch.addr)[chanHeadSlot])
		if _, ok := ch.TryRecv(vp); !ok || ch.Len() != 3 {
			t.Fatalf("after one receive: %d pending, want 3", ch.Len())
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Fatalf("a whole queue fails VerifyHeap: %v", err)
		}
		name := "channel " + ch.addr.String() + ": "
		for _, c := range []struct {
			what, want string
			slot       int
			to         heap.Addr
		}{
			{"head at the popped node", "count 3, but 4 queue nodes pending", chanHeadSlot, popped},
			{"tail at the head", "tail ", chanTailSlot, heap.Addr(rt.Space.Payload(ch.addr)[chanHeadSlot])},
		} {
			p := rt.Space.Payload(ch.addr)
			was := p[c.slot]
			p[c.slot] = uint64(c.to)
			err := rt.VerifyHeap()
			p[c.slot] = was
			if err == nil || !strings.HasPrefix(err.Error(), name) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: VerifyHeap says %v; want %q naming %q", c.what, err, c.want, name)
			}
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("the restored queue fails VerifyHeap: %v", err)
		}
	})
}
