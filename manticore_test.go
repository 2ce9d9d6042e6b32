package manticore

import (
	"testing"

	"repro/internal/heap"
)

func testRuntime(t *testing.T, vprocs int) *Runtime {
	t.Helper()
	cfg := Defaults(AMD48(), vprocs)
	cfg.LocalHeapWords = 8 << 10
	cfg.ChunkWords = 2 << 10
	cfg.Debug = true
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestQuickstartAPI(t *testing.T) {
	rt := testRuntime(t, 4)
	var got uint64
	elapsed := rt.Run(func(w *Worker) {
		a := w.AllocRaw([]uint64{41})
		slot := w.PushRoot(a)
		v := w.LoadWord(w.Root(slot), 0)
		got = v + 1
		w.PopRoots(1)
	})
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if elapsed <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestRegisterRecordAndAllocMixed(t *testing.T) {
	rt := testRuntime(t, 1)
	id := rt.RegisterRecord("pair", 3, []int{1, 2})
	rt.Run(func(w *Worker) {
		x := w.AllocRaw([]uint64{7})
		xs := w.PushRoot(x)
		y := w.AllocRaw([]uint64{9})
		ys := w.PushRoot(y)
		p := w.AllocMixed(id, []RawField{{Off: 0, Word: 100}}, []PtrField{{Off: 1, Slot: xs}, {Off: 2, Slot: ys}})
		ps := w.PushRoot(p)
		if w.LoadWord(w.Root(ps), 0) != 100 {
			t.Error("raw field lost")
		}
		l := w.LoadPtr(w.Root(ps), 1)
		if w.LoadWord(l, 0) != 7 {
			t.Error("pointer field 1 wrong")
		}
		if r := w.LoadPtr(w.Root(ps), 2); w.LoadWord(r, 0) != 9 {
			t.Error("pointer field 2 wrong")
		}
		w.PopRoots(3)
	})
}

func TestChannelSameVProcStaysLocal(t *testing.T) {
	rt := testRuntime(t, 1)
	ch := rt.NewChannel()
	rt.Run(func(w *Worker) {
		msg := w.AllocRaw([]uint64{0xfeed})
		slot := w.PushRoot(msg)
		ch.Send(w, slot)
		got := ch.Recv(w)
		// Same-vproc rendezvous: the message must not have been
		// promoted; it is still in this vproc's local heap.
		if rt.Space.Region(got.RegionID()).Kind != heap.RegionLocal {
			t.Error("same-vproc message was promoted")
		}
		if w.LoadWord(got, 0) != 0xfeed {
			t.Error("message payload wrong")
		}
		w.PopRoots(1)
	})
}

func TestChannelCrossVProcPromotes(t *testing.T) {
	rt := testRuntime(t, 2)
	ch := rt.NewChannel()
	var payload uint64
	var wasGlobal bool
	rt.Run(func(w *Worker) {
		// The receiver runs as a task; with two vprocs and a busy
		// sender it is stolen by vproc 1.
		recv := w.Spawn(func(w2 *Worker, _ Env) {
			got := ch.Recv(w2)
			payload = w2.LoadWord(got, 0)
			r := w2.Runtime().Space.Region(got.RegionID())
			wasGlobal = r.Kind == heap.RegionChunk
		})
		msg := w.AllocRaw([]uint64{0xcafe})
		slot := w.PushRoot(msg)
		ch.Send(w, slot)
		w.Compute(1_000_000) // let vproc 1 steal the receiver
		w.Join(recv)
		w.PopRoots(1)
	})
	if payload != 0xcafe {
		t.Errorf("payload = %#x, want 0xcafe", payload)
	}
	if !wasGlobal {
		t.Error("cross-vproc message should resolve to a promoted (global) copy")
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}

func TestChannelMessageSurvivesSenderGC(t *testing.T) {
	// The proxy's local slot must be treated as a GC root of the owner:
	// churn between Send and Recv forces collections on the sender.
	rt := testRuntime(t, 1)
	ch := rt.NewChannel()
	rt.Run(func(w *Worker) {
		msg := w.AllocRaw([]uint64{123, 456})
		slot := w.PushRoot(msg)
		ch.Send(w, slot)
		w.PopRoots(1) // the channel proxy is now the only reference
		for i := 0; i < 2000; i++ {
			w.AllocRawN(5)
		}
		got := ch.Recv(w)
		if w.LoadWord(got, 0) != 123 || w.LoadWord(got, 1) != 456 {
			t.Error("message corrupted by sender's collections")
		}
	})
}

func TestMutableRefWriteBarrier(t *testing.T) {
	rt := testRuntime(t, 1)
	rt.Run(func(w *Worker) {
		init := w.AllocRaw([]uint64{1})
		is := w.PushRoot(init)
		ref := w.NewRef(is)
		rs := w.PushRoot(ref)

		v2 := w.AllocRaw([]uint64{2})
		vs := w.PushRoot(v2)
		w.WriteRef(w.Root(rs), vs)

		got := w.ReadRef(w.Root(rs))
		if w.LoadWord(got, 0) != 2 {
			t.Error("ref did not update")
		}
		// The write barrier must have promoted the stored value.
		if rt.Space.Region(w.Resolve(got).RegionID()).Kind != heap.RegionChunk {
			t.Error("stored value not promoted by the write barrier")
		}
		if err := rt.VerifyHeap(); err != nil {
			t.Errorf("heap invariants: %v", err)
		}
		w.PopRoots(3)
	})
}

func TestParallelRangeCoversAllIndices(t *testing.T) {
	rt := testRuntime(t, 4)
	seen := make([]bool, 1000)
	rt.Run(func(w *Worker) {
		w.ParallelRange(0, len(seen), 16, nil, func(w *Worker, lo, hi int, _ Env) {
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("index %d visited twice", i)
				}
				seen[i] = true
				w.Compute(50)
			}
		})
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d never visited", i)
		}
	}
}

func TestPolicyParsing(t *testing.T) {
	if p, err := ParsePolicy("interleaved"); err != nil || p != PolicyInterleaved {
		t.Error("ParsePolicy(interleaved) failed")
	}
	if _, err := MachinePreset("intel32"); err != nil {
		t.Error("MachinePreset(intel32) failed")
	}
}

func TestChannelSelectAndMailboxFacade(t *testing.T) {
	rt := testRuntime(t, 2)
	fast := rt.NewChannel()
	slow := rt.NewMailbox(4)
	var firstIdx int
	var sum uint64
	rt.Run(func(w *Worker) {
		a := w.AllocRaw([]uint64{5})
		as := w.PushRoot(a)
		slow.Send(w, as)
		w.PopRoots(1)

		which, m := Select(w, fast, slow)
		firstIdx = which
		sum += w.LoadWord(m, 0)

		// Continuation receive: parks a task, resumed by the later send.
		fast.RecvThen(w, nil, func(w *Worker, _ Env, msg Addr) {
			sum += w.LoadWord(msg, 0)
		})
		b := w.AllocRaw([]uint64{11})
		bs := w.PushRoot(b)
		fast.Send(w, bs)
		w.PopRoots(1)
	})
	if firstIdx != 1 {
		t.Errorf("Select chose channel %d, want 1", firstIdx)
	}
	if sum != 16 {
		t.Errorf("sum = %d, want 16", sum)
	}
	if err := rt.VerifyHeap(); err != nil {
		t.Errorf("heap invariants: %v", err)
	}
}
