package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
)

// The probe suite times each layer from outside, through exported functions
// only. Every probe runs a fixed op count and reports the minimum over its
// repeats divided by that count, so it answers "what does one such
// operation cost on this host when nothing else is in the way" — the number
// an optimisation of that layer has to move.

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type prober struct {
	reps int // repeats per probe; the minimum is reported
	div  int // op-count divisor (1 for a real run, larger for -quick)
	out  map[string]metricValue
}

func newProber(quick bool) *prober {
	p := &prober{reps: 5, div: 1, out: map[string]metricValue{}}
	if quick {
		p.reps, p.div = 1, 20
	}
	return p
}

// n scales an op count.
func (p *prober) n(ops int) int { return max(1, ops/p.div) }

// min returns the smallest of reps measurements; fn times its own measured
// region so set-up stays outside it.
func (p *prober) min(fn func() time.Duration) float64 {
	best := math.Inf(1)
	for i := 0; i < p.reps; i++ {
		if d := float64(fn().Nanoseconds()); d < best {
			best = d
		}
	}
	return best
}

// timed is min for a region with no set-up.
func (p *prober) timed(fn func()) float64 {
	return p.min(func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	})
}

func (p *prober) add(name, unit string, v float64) { p.out[name] = metricValue{v, unit} }

var probeSink uint64

// runProbes runs the whole suite.
func runProbes(quick bool) map[string]metricValue {
	p := newProber(quick)
	probeVtime(p)
	probeNuma(p)
	probeMempage(p)
	probeHeap(p)
	probeCore(p)
	probeSweep(p)
	return p.out
}

// --- vtime -----------------------------------------------------------------

// countdown is a step function that charges d for left turns, then exits.
func countdown(left *int, d int64) func() (int64, bool) {
	return func() (int64, bool) {
		if *left == 0 {
			return 0, true
		}
		*left--
		return d, false
	}
}

func probeVtime(p *prober) {
	n := p.n(5_000_000)
	d := p.timed(func() {
		e := vtime.NewEngine(1)
		e.Run(func(pr *vtime.Proc) {
			for i := 0; i < n; i++ {
				pr.Advance(1)
			}
		})
	})
	p.add("vtime.horizon_advance_ns", "ns", d/float64(n))

	// Inline turns: every proc parks in StepWhile with a different period,
	// so each turn is one step call plus a ready-heap sift at depth
	// log4(procs) — barnes-hut's hot path.
	for _, c := range []struct {
		name  string
		procs int
	}{{"vtime.inline_turn_ns.n48", 48}, {"vtime.inline_turn_ns.n256", 256}} {
		per := p.n(1_000_000) / c.procs
		d := p.timed(func() {
			e := vtime.NewEngine(c.procs)
			e.Run(func(pr *vtime.Proc) {
				left := per
				pr.StepWhile(countdown(&left, int64(100+pr.ID%13)))
			})
		})
		p.add(c.name, "ns", d/float64(per*c.procs))
	}

	// Handoffs: 48 direct-style procs in lockstep, so every Advance
	// crosses the horizon and moves the token to another goroutine —
	// the allocation-churn hot path.
	per := p.n(96_000) / 48
	d = p.timed(func() {
		e := vtime.NewEngine(48)
		e.Run(func(pr *vtime.Proc) {
			for i := 0; i < per; i++ {
				pr.Advance(1)
			}
		})
	})
	p.add("vtime.handoff_ns.n48", "ns", d/float64(per*48))

	n = p.n(500_000)
	d = p.timed(func() {
		var q vtime.TimerQueue
		x := uint64(88172645463325252)
		var now int64
		for i := 0; i < 1024+n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			q.Add(now+1+int64(x%4096), nil)
			if i >= 1024 {
				now = q.PopDue(math.MaxInt64).When
			}
		}
	})
	p.add("vtime.timer_op_ns", "ns", d/float64(n))

	rounds := p.n(96_000) / 48
	d = p.timed(func() {
		e := vtime.NewEngine(48)
		bar := vtime.NewBarrier(48, 600)
		e.Run(func(pr *vtime.Proc) {
			for i := 0; i < rounds; i++ {
				pr.Advance(int64(pr.ID) + 1)
				bar.Arrive(pr)
			}
		})
	})
	p.add("vtime.barrier_ns.n48", "ns", d/float64(rounds*48))

	// Span turns: the same countdown machines as the inline probe, parked
	// via SpanWhile on an engine with two span workers, so windows open,
	// close early at each exit and replay.
	per = p.n(2_000_000) / 48
	d = p.timed(func() {
		e := vtime.NewEngine(48)
		e.SetParallel(2)
		e.Run(func(pr *vtime.Proc) {
			left, saved := per, 0
			pr.SpanWhile(countdown(&left, int64(100+pr.ID%13)),
				func() { saved = left }, func() { left = saved })
		})
	})
	p.add("vtime.span_turn_ns.par2", "ns", d/float64(per*48))
}

// --- numa ------------------------------------------------------------------

func probeNuma(p *prober) {
	amd, rack := numa.AMD48(), numa.Rack256()
	for _, c := range []struct {
		name string
		topo *numa.Topology
	}{{"numa.new_machine_ms.amd48", amd}, {"numa.new_machine_ms.rack256", rack}} {
		n := p.n(20)
		d := p.timed(func() {
			for i := 0; i < n; i++ {
				probeSink += uint64(numa.NewMachine(c.topo).EpochNs)
			}
		})
		p.add(c.name, "ms", d/float64(n)/1e6)
	}

	// Fast path: charges rotate over (core, node) pairs and advance time
	// so every meter stays under budget (mult == 1).
	type charge struct{ core, node, bytes int }
	var mix [64]charge
	for i := range mix {
		node := i % amd.NumNodes()
		from := (node + i%3) % amd.NumNodes() // local, neighbour, two away
		mix[i] = charge{amd.Nodes()[from].Cores[0], node, 64 << (i & 3)}
	}
	n := p.n(5_000_000)
	var sink int64
	d := p.min(func() time.Duration {
		m := numa.NewMachine(amd)
		start := time.Now()
		var now int64
		for i := 0; i < n; i++ {
			c := &mix[i&63]
			sink += m.AccessCost(now, c.core, c.node, c.bytes, numa.AccessMemory)
			now += 12
		}
		return time.Since(start)
	})
	p.add("numa.access_fast_ns", "ns", d/float64(n))

	// Slow path: all 48 cores hit node 0 inside one epoch, so its
	// controller is over budget and every charge pays multiplier math.
	n = p.n(3_000_000)
	d = p.min(func() time.Duration {
		m := numa.NewMachine(amd)
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += m.AccessCost(1000, i%48, 0, 4096, numa.AccessMemory)
		}
		return time.Since(start)
	})
	p.add("numa.access_slow_ns", "ns", d/float64(n))

	n = p.n(10_000_000)
	d = p.min(func() time.Duration {
		m := numa.NewMachine(amd)
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += m.CacheAccessCost(8 << (i & 7))
		}
		return time.Since(start)
	})
	p.add("numa.cache_access_ns", "ns", d/float64(n))

	n = p.n(3_000_000)
	d = p.min(func() time.Duration {
		m := numa.NewMachine(amd)
		start := time.Now()
		var now int64
		for i := 0; i < n; i++ {
			c := &mix[i&63]
			sink += m.CopyStreamCost(now, c.core, c.node, mix[(i+1)&63].node, c.bytes, numa.AccessMemory, numa.AccessMemory)
			now += 12
		}
		return time.Since(start)
	})
	p.add("numa.copy_stream_ns", "ns", d/float64(n))
	probeSink += uint64(sink)
}

// --- mempage ---------------------------------------------------------------

func probeMempage(p *prober) {
	const nodes, pagesPerAlloc = 8, 32 // one 16 K-word chunk
	for _, pol := range policies {
		n := p.n(20_000)
		d := p.min(func() time.Duration {
			t := mempage.NewTable(pol, nodes)
			start := time.Now()
			for i := 0; i < n; i++ {
				probeSink += uint64(t.Alloc(pagesPerAlloc, i%nodes))
			}
			return time.Since(start)
		})
		p.add("mempage.alloc_ns."+pol.String(), "ns", d/float64(n*pagesPerAlloc))
	}

	const pages = 1024
	t := mempage.NewTable(mempage.PolicyInterleaved, nodes)
	t.Alloc(pages, 0)
	n := p.n(10_000_000)
	d := p.timed(func() {
		for i := 0; i < n; i++ {
			probeSink += uint64(t.NodeOfWord(0, (i*517)&(pages*mempage.PageWords-1)))
		}
	})
	p.add("mempage.node_of_word_ns", "ns", d/float64(n))
}

// --- heap ------------------------------------------------------------------

func probeHeap(p *prober) {
	const nodes = 8
	newSpace := func() *heap.Space { return heap.NewSpace(mempage.NewTable(mempage.PolicyLocal, nodes)) }

	// Default local heaps, four amd48 runtimes' worth back to back so the
	// Go heap is recycling (and zeroing) spans as it does in a sweep.
	n := p.n(4 * 48)
	d := p.timed(func() {
		var s *heap.Space
		for i := 0; i < n; i++ {
			if i%48 == 0 {
				s = newSpace()
			}
			s.NewRegion(heap.RegionLocal, i, 64<<10, i%nodes)
		}
	})
	p.add("heap.new_region_ms", "ms", d/float64(n)/1e6)

	lh := heap.NewLocalHeap(newSpace().NewRegion(heap.RegionLocal, 0, 64<<10, 0))
	hdr := heap.MakeHeader(heap.IDRaw, 3)
	n = p.n(10_000_000)
	d = p.timed(func() {
		for i := 0; i < n; i++ {
			if !lh.CanAlloc(3) {
				lh.ResetNursery()
			}
			probeSink += uint64(lh.Bump(hdr))
		}
	})
	p.add("heap.bump_ns", "ns", d/float64(n))

	// A chunk full of 4-pointer vectors, each slot pointing at its own
	// object, scanned with an identity visitor.
	s := newSpace()
	cm := heap.NewChunkManager(s, 16<<10, nodes)
	c, _ := cm.Get(0, 0)
	var objs []heap.Addr
	for vec := heap.MakeHeader(heap.IDVector, 4); c.CanAlloc(4); {
		a := c.Bump(vec)
		for i, pl := 0, s.Payload(a); i < len(pl); i++ {
			pl[i] = uint64(a)
		}
		objs = append(objs, a)
	}
	tab := heap.NewTable()
	passes := max(1, p.n(2_500_000)/len(objs))
	d = p.timed(func() {
		for i := 0; i < passes; i++ {
			for _, a := range objs {
				heap.ScanObject(s, tab, a, func(_ int, ptr heap.Addr) heap.Addr {
					probeSink += uint64(ptr)
					return ptr
				})
			}
		}
	})
	p.add("heap.scan_object_ns", "ns", d/float64(passes*len(objs)))

	// Get/Release of a recycled 2 K-word chunk: the free-list pop plus the
	// zeroing every reuse pays.
	cm = heap.NewChunkManager(newSpace(), 2<<10, nodes)
	n = p.n(300_000)
	d = p.timed(func() {
		for i := 0; i < n; i++ {
			c, _ := cm.Get(0, 0)
			cm.Release(c)
		}
	})
	p.add("heap.chunk_get_put_ns", "ns", d/float64(n))
}

// --- core ------------------------------------------------------------------

// hugeTrigger keeps the global collector out of probes that time something
// else.
const hugeTrigger = 1 << 40

// runHost builds a runtime, runs entry, and returns the runtime with the
// host time of rt.Run alone.
func runHost(cfg core.Config, entry func(vp *core.VProc)) (*core.Runtime, time.Duration) {
	rt := core.MustNewRuntime(cfg)
	start := time.Now()
	rt.Run(entry)
	return rt, time.Since(start)
}

// liveList allocates cells live cells: a 3-word raw object and a 2-pointer
// vector linking it to the previous cell, 7 heap words per cell. The head
// stays in root slot head, so every word survives every collection.
func liveList(vp *core.VProc, head, cells int) {
	for i := 0; i < cells; i++ {
		leaf := vp.PushRoot(vp.AllocRawN(3))
		cell := vp.AllocVector([]int{leaf, head})
		vp.PopRoots(1)
		vp.SetRoot(head, cell)
	}
}

const cellWords = 7

// promoteChurn allocates and promotes n 6-word objects that die at once:
// global-heap garbage at 7 words apiece.
func promoteChurn(vp *core.VProc, n int) {
	for i := 0; i < n; i++ {
		vp.Promote(vp.AllocRawN(6))
	}
}

func probeCore(p *prober) {
	amd, rack := numa.AMD48(), numa.Rack256()

	// Construction is timed over back-to-back runtimes, as a sweep builds
	// them: the Go heap recycles the previous runtime's spans, so the
	// zeroing every point really pays is inside the number.
	for _, c := range []struct {
		name  string
		topo  *numa.Topology
		nv, k int
	}{{"amd48x48", amd, 48, 16}, {"rack256x256", rack, 256, 4}} {
		k := max(1, c.k/p.div)
		var allocMB float64
		d := p.min(func() time.Duration {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < k; i++ {
				probeSink += uint64(len(core.MustNewRuntime(core.DefaultConfig(c.topo, c.nv)).VProcs))
			}
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			allocMB = float64(after.TotalAlloc-before.TotalAlloc) / float64(k) / (1 << 20)
			return el
		})
		p.add("core.new_runtime_ms."+c.name, "ms", d/float64(k)/1e6)
		if c.nv == 48 {
			p.add("core.new_runtime_alloc_mb."+c.name, "MB", allocMB)
		}
	}

	one := func() core.Config {
		cfg := core.DefaultConfig(amd, 1)
		cfg.GlobalTriggerWords = hugeTrigger
		return cfg
	}

	// Allocation: short-lived 3-word objects; minors find nothing live.
	n := p.n(2_000_000)
	allocNs := p.min(func() time.Duration {
		_, d := runHost(one(), func(vp *core.VProc) {
			for i := 0; i < n; i++ {
				vp.AllocRawN(3)
			}
		})
		return d
	}) / float64(n)
	p.add("core.alloc_ns", "ns", allocNs)

	// Minor collection: an all-live list in a local heap large enough that
	// the halving nursery never drops below the major threshold. What the
	// run costs beyond its allocations is the minor copy loop.
	heapWords := max(16<<10, p.n(1<<20))
	cells := heapWords * 9 / 10 / cellWords
	var st core.VPStats
	d := p.min(func() time.Duration {
		cfg := one()
		cfg.LocalHeapWords = heapWords
		cfg.MinNurseryWords = 1
		rt, d := runHost(cfg, func(vp *core.VProc) { liveList(vp, vp.PushRoot(0), cells) })
		st = rt.TotalStats()
		return d
	})
	minorNs := perWord(d-allocNs*float64(2*cells), st.MinorCopied)
	p.add("core.minor_ns_per_word", "ns", minorNs)

	// Major collection: the same list in a default local heap, so the old
	// area is evacuated to the global heap again and again.
	cells = p.n(150_000)
	d = p.min(func() time.Duration {
		rt, d := runHost(one(), func(vp *core.VProc) { liveList(vp, vp.PushRoot(0), cells) })
		st = rt.TotalStats()
		return d
	})
	p.add("core.major_ns_per_word", "ns",
		perWord(d-allocNs*float64(2*cells)-minorNs*float64(st.MinorCopied), st.MajorCopied))

	// Promotion of fresh 6-word objects.
	n = p.n(300_000)
	d = p.min(func() time.Duration {
		rt, d := runHost(one(), func(vp *core.VProc) { promoteChurn(vp, n) })
		st = rt.TotalStats()
		return d
	})
	p.add("core.promote_ns_per_word", "ns", perWord(d-allocNs*float64(n), st.PromotedWords))

	// Global collection: a live promoted list plus promoted garbage. With
	// the default trigger the garbage forces collections that each copy
	// the list; the same run with the trigger out of reach is the base.
	live, churn := p.n(20_000), p.n(150_000)
	globalRun := func(trigger int, concurrent bool) (float64, int64) {
		var copied int64
		d := p.min(func() time.Duration {
			cfg := core.DefaultConfig(amd, 1)
			cfg.GlobalTriggerWords = trigger
			cfg.ConcurrentGlobal = concurrent
			rt, d := runHost(cfg, func(vp *core.VProc) {
				head := vp.PushRoot(0)
				liveList(vp, head, live)
				vp.PromoteRoot(head)
				promoteChurn(vp, churn)
			})
			copied = rt.Stats.GlobalCopied
			return d
		})
		return d, copied
	}
	base, _ := globalRun(hugeTrigger, false)
	for _, c := range []struct {
		name       string
		concurrent bool
	}{{"core.global_stw_ns_per_word", false}, {"core.global_conc_ns_per_word", true}} {
		d, copied := globalRun(0, c.concurrent)
		p.add(c.name, "ns", perWord(d-base, copied))
	}

	// Channels: a send/receive pair on one vproc (the message queues, then
	// is taken back), and a ping-pong across two vprocs (every message is
	// a rendezvous with a parked receiver, proxied and promoted).
	n = p.n(150_000)
	d = p.min(func() time.Duration {
		_, d := runHost(one(), func(vp *core.VProc) {
			ch := vp.Runtime().NewChannel()
			for i := 0; i < n; i++ {
				s := vp.PushRoot(vp.AllocRawN(2))
				ch.Send(vp, s)
				vp.PopRoots(1)
				ch.Recv(vp)
			}
		})
		return d
	})
	p.add("core.chan_same_vproc_ns", "ns", d/float64(n))

	two := core.DefaultConfig(amd, 2)
	two.GlobalTriggerWords = hugeTrigger
	n = p.n(30_000)
	d = p.min(func() time.Duration {
		_, d := runHost(two, func(vp *core.VProc) {
			rt := vp.Runtime()
			ping, pong := rt.NewChannel(), rt.NewChannel()
			send := func(vp *core.VProc, ch *core.Channel) {
				s := vp.PushRoot(vp.AllocRawN(2))
				ch.Send(vp, s)
				vp.PopRoots(1)
			}
			stolen := false
			vp.Spawn(func(vp *core.VProc, _ core.Env) {
				stolen = true
				for i := 0; i < n; i++ {
					ping.Recv(vp)
					send(vp, pong)
				}
			})
			// Keep computing until vproc 1 has stolen the echo task: a
			// blocking Recv here would run it inline below this frame.
			for !stolen {
				vp.Compute(1000)
			}
			for i := 0; i < n; i++ {
				send(vp, ping)
				pong.Recv(vp)
			}
		})
		return d
	})
	p.add("core.chan_cross_vproc_ns", "ns", d/float64(2*n))

	// Timers: 64 chains, each firing re-arms the next deadline, as the
	// open-loop harness's clients do.
	const chains = 64
	per := p.n(128_000) / chains
	d = p.min(func() time.Duration {
		_, d := runHost(one(), func(vp *core.VProc) {
			var arm func(vp *core.VProc, c, left int)
			arm = func(vp *core.VProc, c, left int) {
				if left == 0 {
					return
				}
				vp.AfterThen(int64(1000+c), nil, func(vp *core.VProc, _ core.Env) { arm(vp, c, left-1) })
			}
			for c := 0; c < chains; c++ {
				arm(vp, c, per)
			}
		})
		return d
	})
	p.add("core.timer_fire_ns", "ns", d/float64(per*chains))

	// Steal probes: vproc 0 computes in one long charge while vproc 1
	// sweeps, finds nothing and polls, over and over.
	n = p.n(2_000_000)
	d = p.min(func() time.Duration {
		rt, d := runHost(two, func(vp *core.VProc) {
			vp.Compute(int64(n) * (two.StealAttemptNs + two.PollNs))
		})
		st = rt.TotalStats()
		return d
	})
	p.add("core.steal_probe_ns", "ns", perWord(d, st.FailedSteals))

	n = p.n(500_000)
	d = p.min(func() time.Duration {
		_, d := runHost(one(), func(vp *core.VProc) {
			for i := 0; i < n; i++ {
				vp.Join(vp.Spawn(func(*core.VProc, core.Env) {}))
			}
		})
		return d
	})
	p.add("core.spawn_join_ns", "ns", d/float64(n))
}

// perWord divides a host time by a deterministic count; a probe whose
// scenario produced no such work reports 0, and a differential that noise
// pushed below zero is clamped there.
func perWord(ns float64, count int64) float64 {
	if count == 0 || ns < 0 {
		return 0
	}
	return ns / float64(count)
}

// --- bench -----------------------------------------------------------------

// probeSweep runs internal/bench.Sweep over the fig_short matrix with one
// worker and with two: what -j 2 buys a figure sweep on this host.
func probeSweep(p *prober) {
	pass := func(workers int) float64 {
		return p.timed(func() {
			for _, m := range []struct {
				topo    *numa.Topology
				threads int
			}{{numa.AMD48(), 48}, {numa.Intel32(), 32}} {
				for _, pol := range policies {
					bench.Sweep(m.topo, pol, []int{m.threads}, bench.Options{
						Scale:      0.25,
						Benchmarks: []string{"dmm", "raytracer", "smvm"},
						Workers:    workers,
					})
				}
			}
		})
	}
	p.add("bench.sweep_j2_speedup", "ratio", pass(1)/pass(2))
}
