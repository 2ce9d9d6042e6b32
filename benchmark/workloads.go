package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// A point is one full simulation exactly as a sweep pays for it:
// numa.Preset -> core.NewRuntime -> spec.Run / workload.RunLatency ->
// TotalStats / Machine.Stats. A workload is a fixed ordered list of points;
// one serial pass over the list is a round.
type point struct {
	label   string
	machine string
	policy  mempage.Policy
	nv      int

	// Exactly one program: a workload.Spec at a scale, or the open-loop
	// latency harness with its options.
	spec  string
	scale float64
	lat   *workload.LatencyOptions

	// tune adjusts the base configuration — core.DefaultConfig for a spec,
	// bench.LatencyConfig for the latency harness — (heap shape,
	// collector, span workers); nil keeps it.
	tune func(*core.Config)

	// ref computes the expected Result.Check for the point; nil means
	// the reference comes from a run made during set-up (barnes-hut).
	ref func(seed uint64) uint64
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name   string
	points []point
	// spans marks the only workload allowed to open span windows.
	spans bool
}

// outcome is every virtual result and statistic of one point. It is
// comparable, so per-round determinism is a plain ==.
type outcome struct {
	ElapsedNs int64
	Check     uint64
	VP        core.VPStats
	RT        core.RTStats
	Traffic   numa.TrafficStats
	Span      vtime.SpanStats

	// Latency harness only.
	Requests            int
	P50, P90, P99, P999 int64
}

// digest folds an outcome into a running FNV-1a hash.
func (o outcome) digest(h uint64) uint64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%x %+v", h, o)
	return f.Sum64()
}

var policies = []mempage.Policy{mempage.PolicyLocal, mempage.PolicyInterleaved, mempage.PolicySingleNode}

// churnHeap is gc_churn's heap shape: 8 K-word local heaps and 2 K-word
// chunks with the global trigger at one chunk per vproc, so ~360 minor,
// ~14 major and 1-2 global collections fire per point.
func churnHeap(c *core.Config) {
	c.LocalHeapWords = 8 << 10
	c.ChunkWords = 2 << 10
	c.GlobalTriggerWords = c.NumVProcs * c.ChunkWords
}

func specPoint(label, machine string, pol mempage.Policy, nv int, spec string, scale float64, ref func(uint64) uint64) point {
	return point{label: label, machine: machine, policy: pol, nv: nv, spec: spec, scale: scale, ref: ref}
}

func latPoint(label, machine string, nv, clients, requests int, gapNs int64, tune func(*core.Config)) point {
	opt := workload.LatencyOptions{Clients: clients, Requests: requests, MeanGapNs: gapNs}
	return point{
		label: label, machine: machine, policy: mempage.PolicyLocal, nv: nv, lat: &opt, tune: tune,
		ref: func(seed uint64) uint64 { return workload.LatencySeq(seed, opt) },
	}
}

func concurrentGC(c *core.Config) { c.ConcurrentGlobal = true }

// workloads builds the five workloads. The point lists are fixed: the seed
// only reaches the programs through Config.Seed.
func workloads() []workloadDef {
	const shortScale = 0.25
	var short []point
	refs := map[string]func(uint64) uint64{
		"dmm":       func(uint64) uint64 { return workload.DMMSeq(shortScale) },
		"raytracer": func(uint64) uint64 { return workload.RaytracerSeq(shortScale) },
		"smvm":      func(uint64) uint64 { return workload.SMVMSeq(shortScale) },
	}
	for _, b := range []string{"dmm", "raytracer", "smvm"} {
		for _, m := range []struct {
			name string
			nv   int
		}{{"amd48", 48}, {"intel32", 32}} {
			for _, pol := range policies {
				short = append(short, specPoint(fmt.Sprintf("%s.%s.%s", b, m.name, pol), m.name, pol, m.nv, b, shortScale, refs[b]))
			}
		}
	}

	const churnScale, churnProcs = 2, 8
	churnRef := func(uint64) uint64 { return workload.SyntheticSeq(churnProcs, churnScale) }
	var churn []point
	for _, pol := range policies {
		p := specPoint(fmt.Sprintf("syn.%s.stw", pol), "amd48", pol, churnProcs, "synthetic", churnScale, churnRef)
		p.tune = churnHeap
		churn = append(churn, p)
	}
	conc := specPoint("syn.local.conc", "amd48", mempage.PolicyLocal, churnProcs, "synthetic", churnScale, churnRef)
	conc.tune = func(c *core.Config) { churnHeap(c); concurrentGC(c) }
	churn = append(churn, conc)

	return []workloadDef{
		// The paper's flagship point (Fig. 5, barnes-hut at 48 cores):
		// inline engine turns and the ready-heap sift dominate; goroutine
		// handoffs and construction are a few percent.
		{name: "fig_bh48", points: []point{
			specPoint("bh.amd48.local.p48", "amd48", mempage.PolicyLocal, 48, "barnes-hut", 1, nil),
		}},
		// What a figure sweep is mostly made of: 18 points of 5-25 ms in
		// which runtime construction outweighs simulation.
		{name: "fig_short", points: short},
		// Direct-style allocating mutators under both global collectors:
		// goroutine token handoffs and the collector do the most host work
		// they do anywhere, the ready-heap sift little.
		{name: "gc_churn", points: churn},
		// Mostly-idle open-loop serving: idle steal sweeps, timers and
		// channel handoffs, at low and high load, with the global
		// collector run both ways.
		{name: "serve_open", points: []point{
			latPoint("lat.gap400.stw", "amd48", 48, 600, 6, 400_000, nil),
			latPoint("lat.gap400.conc", "amd48", 48, 600, 6, 400_000, concurrentGC),
			latPoint("lat.gap100.stw", "amd48", 48, 600, 6, 100_000, nil),
		}},
		// The only workload that opens span windows, at the proc count
		// where the ready heap is deepest; its serial twin in the same
		// round shows a span-scheduler change that costs the serial path.
		{name: "rack_span", spans: true, points: []point{
			latPoint("rack.serial", "rack256", 256, 300, 3, 200_000, nil),
			latPoint("rack.par2", "rack256", 256, 300, 3, 200_000, func(c *core.Config) { c.SpanWorkers = 2 }),
		}},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config builds the point's runtime configuration on a topology.
func (p *point) config(topo *numa.Topology, seed uint64) core.Config {
	cfg := core.DefaultConfig(topo, p.nv)
	cfg.Policy = p.policy
	if p.lat != nil {
		// The latency sweep's GC-pressure heap shape.
		cfg = bench.LatencyConfig(topo, p.policy, p.nv)
	}
	cfg.Seed = seed
	if p.tune != nil {
		p.tune(&cfg)
	}
	return cfg
}

// runPoint executes one point and returns its outcome. A panic anywhere
// inside the simulation is recovered and reported as an error, so one bad
// point costs a failed check, not the run. tr may be nil (untraced).
func runPoint(p *point, seed uint64, tr *tracer, parent int) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	s := tr.begin("numa.Preset", p.label, parent)
	topo, err := numa.Preset(p.machine)
	tr.end(s)
	if err != nil {
		return out, err
	}

	s = tr.begin("core.NewRuntime", p.label, parent)
	rt, err := core.NewRuntime(p.config(topo, seed))
	tr.end(s)
	if err != nil {
		return out, err
	}
	if tr != nil {
		rt.SetTracer(func(ev core.GCEvent) { tr.gcEvents[ev.Kind]++ })
	}

	s = tr.begin("workload.Run", p.label, parent)
	if p.lat != nil {
		res := workload.RunLatency(rt, *p.lat)
		out.ElapsedNs, out.Check = res.ElapsedNs, res.Check
		out.Requests = res.Requests
		out.P50, out.P90, out.P99, out.P999 = res.P50, res.P90, res.P99, res.P999
	} else {
		spec, serr := workload.ByName(p.spec)
		if serr != nil {
			tr.end(s)
			return out, serr
		}
		res := spec.Run(rt, p.scale)
		out.ElapsedNs, out.Check = res.ElapsedNs, res.Check
	}
	tr.end(s)

	s = tr.begin("stats", p.label, parent)
	out.VP = rt.TotalStats()
	out.RT = rt.Stats
	out.Traffic = rt.Machine.Stats()
	out.Span = rt.Eng.SpanStats()
	tr.end(s)
	return out, nil
}

// check validates one outcome against the point's reference and, for the
// latency harness, the request accounting. It returns "" when the point
// passes, else a description naming the two differing values.
func (p *point) check(out outcome, wantCheck uint64) string {
	if out.Check != wantCheck {
		return fmt.Sprintf("Result.Check %#x != reference %#x", out.Check, wantCheck)
	}
	if p.lat != nil {
		want := p.lat.Clients * p.lat.Requests
		if out.Requests != want {
			return fmt.Sprintf("Requests %d != Clients x Requests %d", out.Requests, want)
		}
		if out.VP.TimersFired != int64(want) {
			return fmt.Sprintf("TimersFired %d != Requests %d", out.VP.TimersFired, want)
		}
	}
	return ""
}
