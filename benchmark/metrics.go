package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mempage"
	"repro/internal/numa"
)

// metricDef names one metric. exact marks virtual-side counts that must
// repeat bit-for-bit between two runs of one commit at one seed; they are
// compared for equality, never as better or worse.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	exact  bool
}

// endToEndDefs are the host-side metrics a user regenerating a figure sees.
// Their bounds live in BENCHMARK.json.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "round_cal_p50", Unit: "ratio", Better: "lower"},
	{Name: "round_cal_hi", Unit: "ratio", Better: "lower"},
	{Name: "round_cpu_cal_p50", Unit: "ratio", Better: "lower"},
	{Name: "alloc_mb_per_round", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayerDefs lists every per-layer metric in report order. A metric that
// does not apply to a workload (a span count off rack_span, another
// workload's point) is reported as 0 there, so every traced run prints the
// same names.
func perLayerDefs() []metricDef {
	ns := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ns", Better: "lower"})
		}
		return out
	}
	count := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "count", Better: "lower", exact: true})
		}
		return out
	}
	var d []metricDef
	d = append(d, ns("vtime.horizon_advance_ns", "vtime.inline_turn_ns.n48", "vtime.inline_turn_ns.n256",
		"vtime.handoff_ns.n48", "vtime.timer_op_ns", "vtime.barrier_ns.n48", "vtime.span_turn_ns.par2")...)
	d = append(d, count("vtime.span.windows", "vtime.span.spans", "vtime.span.turns")...)
	d = append(d, metricDef{Name: "vtime.span.close_exit_share", Unit: "fraction", Better: "lower", exact: true})

	d = append(d,
		metricDef{Name: "numa.new_machine_ms.amd48", Unit: "ms", Better: "lower"},
		metricDef{Name: "numa.new_machine_ms.rack256", Unit: "ms", Better: "lower"})
	d = append(d, ns("numa.access_fast_ns", "numa.access_slow_ns", "numa.cache_access_ns", "numa.copy_stream_ns")...)
	d = append(d, count("numa.accesses")...)
	d = append(d, metricDef{Name: "numa.remote_share", Unit: "fraction", Better: "lower", exact: true})

	d = append(d, ns("mempage.alloc_ns.local", "mempage.alloc_ns.interleaved", "mempage.alloc_ns.single-node",
		"mempage.node_of_word_ns")...)

	d = append(d, metricDef{Name: "heap.new_region_ms", Unit: "ms", Better: "lower"})
	d = append(d, ns("heap.bump_ns", "heap.scan_object_ns", "heap.chunk_get_put_ns")...)

	d = append(d,
		metricDef{Name: "core.new_runtime_ms.amd48x48", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.new_runtime_ms.rack256x256", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.new_runtime_alloc_mb.amd48x48", Unit: "MB", Better: "lower"})
	d = append(d, ns("core.alloc_ns", "core.minor_ns_per_word", "core.major_ns_per_word", "core.promote_ns_per_word",
		"core.global_stw_ns_per_word", "core.global_conc_ns_per_word", "core.chan_same_vproc_ns",
		"core.chan_cross_vproc_ns", "core.timer_fire_ns", "core.steal_probe_ns", "core.spawn_join_ns")...)
	d = append(d, count("core.minor_gcs", "core.major_gcs", "core.global_gcs", "core.copied_words", "core.alloc_words",
		"core.tasks_run", "core.failed_steals", "core.chan_sends", "core.timers_fired")...)

	d = append(d,
		metricDef{Name: "workload.run_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "workload.ref_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "workload.host_us_per_request", Unit: "us", Better: "lower"},
		metricDef{Name: "workload.host_ns_per_task", Unit: "ns", Better: "lower"})

	for _, w := range workloads() {
		for _, p := range w.points {
			d = append(d, metricDef{Name: "bench.point_ms_p50." + p.label, Unit: "ms", Better: "lower"})
		}
	}
	d = append(d,
		metricDef{Name: "bench.round_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.round_ms_min", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.round_cpu_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.calib_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.calib_drift", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.maccess_per_cpu_s", Unit: "M/s", Better: "higher"},
		metricDef{Name: "bench.new_runtime_share", Unit: "fraction", Better: "lower"},
		metricDef{Name: "bench.par2_over_serial", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.sweep_j2_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.unattributed_share", Unit: "fraction", Better: "lower"},
		metricDef{Name: "bench.point_coverage", Unit: "fraction", Better: "higher"},
		metricDef{Name: "bench.fail_share", Unit: "fraction", Better: "lower", exact: true},
		metricDef{Name: "bench.rounds", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.hi_percentile", Unit: "%", Better: "higher"},
		metricDef{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"})

	d = append(d,
		metricDef{Name: "model.virtual_ms", Unit: "ms", Better: "lower", exact: true},
		metricDef{Name: "model.digest", Unit: "count", Better: "lower", exact: true},
		metricDef{Name: "model.speedup_p48", Unit: "ratio", Better: "higher", exact: true},
		metricDef{Name: "model.p999_us.stw", Unit: "us", Better: "lower", exact: true},
		metricDef{Name: "model.p999_us.concurrent", Unit: "us", Better: "lower", exact: true})
	return d
}

// counts are one round's virtual-side totals: exact, summed over points.
type counts struct {
	minorGCs, majorGCs, globalGCs                    int64
	minorCopied, majorCopied, promoted, globalCopied int64
	allocWords, tasksRun, failedSteals               int64
	chanSends, timersFired, requests                 int64
	accesses                                         uint64
	// metered is the accesses of points whose pages are not node-local
	// (interleaved, single-node): the cost model's slow path.
	metered          uint64
	dramBytes        uint64
	remoteBytes      uint64
	virtualNs        int64
	windows          int64
	spans, spanTurns int64
	closeExit        int64
}

func (m *measurement) counts() counts {
	var c counts
	for i, o := range m.st.first {
		c.minorGCs += int64(o.VP.MinorGCs)
		c.majorGCs += int64(o.VP.MajorGCs)
		c.globalGCs += int64(o.RT.GlobalGCs)
		c.minorCopied += o.VP.MinorCopied
		c.majorCopied += o.VP.MajorCopied
		c.promoted += o.VP.PromotedWords
		c.globalCopied += o.RT.GlobalCopied
		c.allocWords += o.VP.AllocWords
		c.tasksRun += o.VP.TasksRun
		c.failedSteals += o.VP.FailedSteals
		c.chanSends += o.VP.ChanSends
		c.timersFired += o.VP.TimersFired
		c.requests += int64(o.Requests)
		c.accesses += o.Traffic.Accesses
		if m.w.points[i].policy != mempage.PolicyLocal {
			c.metered += o.Traffic.Accesses
		}
		for k, b := range o.Traffic.BytesByPath {
			c.dramBytes += b
			if numa.PathKind(k) >= numa.PathRemote {
				c.remoteBytes += b
			}
		}
		c.virtualNs += o.ElapsedNs
		c.windows += o.Span.Windows
		c.spans += o.Span.Spans
		c.spanTurns += o.Span.SpanTurns
		c.closeExit += o.Span.CloseExit
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd reports the end-to-end metrics from the untraced rounds.
func (m *measurement) endToEnd() map[string]metricValue {
	hi, _ := highPercentile(m.pick(false, calRel))
	return map[string]metricValue{
		"setup_s":            {median(m.setupS), "s"},
		"round_cal_p50":      {median(m.pick(false, calRel)), "ratio"},
		"round_cal_hi":       {hi, "ratio"},
		"round_cpu_cal_p50":  {median(m.pick(false, cpuRel)), "ratio"},
		"alloc_mb_per_round": {m.allocMB, "MB"},
		"peak_rss_mb":        {m.peakRSSMB, "MB"},
	}
}

// perLayer reports every per-layer metric of a traced run (m.tr is set):
// exact counts from the points' outcomes, spans from the traced rounds, host
// timings from the untraced rounds, and the probe suite's results.
func (m *measurement) perLayer(probes map[string]metricValue) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range perLayerDefs() {
		out[d.Name] = metricValue{0, d.Unit}
	}
	set := func(name string, v float64) {
		mv, ok := out[name]
		if !ok {
			panic("benchmark: metric " + name + " is not in perLayerDefs")
		}
		mv.Value = v
		out[name] = mv
	}
	for name, v := range probes {
		set(name, v.Value)
	}

	c := m.counts()
	set("vtime.span.windows", float64(c.windows))
	set("vtime.span.spans", float64(c.spans))
	set("vtime.span.turns", float64(c.spanTurns))
	set("vtime.span.close_exit_share", ratio(float64(c.closeExit), float64(c.windows)))
	set("numa.accesses", float64(c.accesses))
	set("numa.remote_share", ratio(float64(c.remoteBytes), float64(c.dramBytes)))
	set("core.minor_gcs", float64(c.minorGCs))
	set("core.major_gcs", float64(c.majorGCs))
	set("core.global_gcs", float64(c.globalGCs))
	set("core.copied_words", float64(c.minorCopied+c.majorCopied+c.promoted+c.globalCopied))
	set("core.alloc_words", float64(c.allocWords))
	set("core.tasks_run", float64(c.tasksRun))
	set("core.failed_steals", float64(c.failedSteals))
	set("core.chan_sends", float64(c.chanSends))
	set("core.timers_fired", float64(c.timersFired))

	// Spans (traced rounds).
	total, _ := m.tr.byName()
	runMs := median(m.tr.perRoundMs("workload.Run"))
	for _, p := range m.w.points {
		set("bench.point_ms_p50."+p.label, median(m.tr.durations("point", p.label)))
	}
	set("bench.point_coverage", m.tr.pointCoverage())
	set("bench.par2_over_serial", ratio(median(m.tr.durations("point", "rack.par2")), median(m.tr.durations("point", "rack.serial"))))
	set("bench.new_runtime_share", ratio(float64(total["core.NewRuntime"]), float64(total["round"])))
	set("workload.run_ms_p50", runMs)
	set("workload.ref_ms", m.st.refMs)
	set("workload.host_us_per_request", ratio(runMs*1e3, float64(c.requests)))
	set("workload.host_ns_per_task", ratio(runMs*1e6, float64(c.tasksRun)))

	// Host timings (untraced rounds).
	wall := m.pick(false, wallMs)
	cpuP50 := median(m.pick(false, cpuMs))
	lo, _ := minMax(wall)
	set("bench.round_ms_p50", median(wall))
	set("bench.round_ms_min", lo)
	set("bench.round_cpu_ms_p50", cpuP50)
	set("bench.calib_ms_p50", median(m.calMs))
	calLo, calHi := minMax(m.calMs)
	set("bench.calib_drift", ratio(calHi, calLo))
	set("bench.maccess_per_cpu_s", ratio(float64(c.accesses)/1e6, cpuP50/1e3))
	set("bench.trace_overhead_pct", 100*(ratio(median(m.pick(true, calRel)), median(m.pick(false, calRel)))-1))
	set("bench.unattributed_share", 1-ratio(m.decompose(probes, c).totalMs(), cpuP50))
	set("bench.fail_share", ratio(float64(len(m.tl.failures)), float64(m.tl.attempted)))
	set("bench.rounds", float64(len(m.rounds)))
	_, pct := highPercentile(m.pick(false, calRel))
	set("bench.hi_percentile", pct)
	set("bench.gomaxprocs", float64(m.gomaxprocs))

	// Model (virtual, exact).
	set("model.virtual_ms", float64(c.virtualNs)/1e6)
	var dg uint64
	for _, o := range m.st.first {
		dg = o.digest(dg)
	}
	set("model.digest", float64(dg&(1<<48-1)))
	for i, p := range m.w.points {
		o := m.st.first[i]
		switch p.label {
		case "bh.amd48.local.p48":
			set("model.speedup_p48", ratio(float64(m.st.t1Ns), float64(o.ElapsedNs)))
		case "lat.gap400.stw":
			set("model.p999_us.stw", float64(o.P999)/1e3)
		case "lat.gap400.conc":
			set("model.p999_us.concurrent", float64(o.P999)/1e3)
		}
	}
	return out
}

// --- Decomposition ---------------------------------------------------------

// layerCost is one layer's share of a round's host CPU time, priced as
// count x probe cost.
type layerCost struct {
	layer string
	what  string
	ms    float64
}

type decomposition []layerCost

func (d decomposition) totalMs() float64 {
	var t float64
	for _, l := range d {
		t += l.ms
	}
	return t
}

// decompose prices one round's exact counts with the probe suite's per-op
// costs. Engine turn and handoff counts are not readable from outside the
// engine, so the vtime layer is missing here by construction and shows up
// as the unattributed remainder.
func (m *measurement) decompose(probes map[string]metricValue, c counts) decomposition {
	pr := func(name string) float64 { return probes[name].Value }
	var newRuntimeMs float64
	for _, p := range m.w.points {
		if p.machine == "rack256" {
			newRuntimeMs += pr("core.new_runtime_ms.rack256x256") * float64(p.nv) / 256
		} else {
			// Construction is dominated by zeroing one local heap per
			// vproc; scale the 48-vproc probe by the vproc count.
			newRuntimeMs += pr("core.new_runtime_ms.amd48x48") * float64(p.nv) / 48
		}
	}
	// Allocation is priced per object; the probe's objects are 4 words
	// with their header.
	const probeAllocWords = 4
	return decomposition{
		{"core", "NewRuntime (points x new_runtime_ms, scaled by vprocs)", newRuntimeMs},
		{"numa", "accesses x access_fast_ns (access_slow_ns on non-local pages)",
			(float64(c.accesses-c.metered)*pr("numa.access_fast_ns") + float64(c.metered)*pr("numa.access_slow_ns")) / 1e6},
		{"core", "alloc_words / 4 x alloc_ns", float64(c.allocWords) / probeAllocWords * pr("core.alloc_ns") / 1e6},
		{"core", "collector: copied words x *_ns_per_word",
			(float64(c.minorCopied)*pr("core.minor_ns_per_word") + float64(c.majorCopied)*pr("core.major_ns_per_word") +
				float64(c.promoted)*pr("core.promote_ns_per_word") + float64(c.globalCopied)*pr("core.global_stw_ns_per_word")) / 1e6},
		{"core", "chan_sends x chan_cross_vproc_ns", float64(c.chanSends) * pr("core.chan_cross_vproc_ns") / 1e6},
		{"core", "timers_fired x timer_fire_ns", float64(c.timersFired) * pr("core.timer_fire_ns") / 1e6},
		{"core", "failed_steals x steal_probe_ns", float64(c.failedSteals) * pr("core.steal_probe_ns") / 1e6},
		{"core", "tasks_run x spawn_join_ns", float64(c.tasksRun) * pr("core.spawn_join_ns") / 1e6},
	}
}

// printDecomposition prints Σ(count x probe cost) per layer beside the
// measured CPU time of a round.
func (m *measurement) printDecomposition(probes map[string]metricValue) {
	c := m.counts()
	d := m.decompose(probes, c)
	cpu := median(m.pick(false, cpuMs))
	fmt.Printf("# decomposition of one %s round: measured CPU %.1f ms\n", m.w.name, cpu)
	for _, l := range d {
		fmt.Printf("#   %-8s %8.2f ms %5.1f %%  %s\n", l.layer, l.ms, 100*ratio(l.ms, cpu), l.what)
	}
	rest := cpu - d.totalMs()
	fmt.Printf("#   %-8s %8.2f ms %5.1f %%  engine turns, handoffs, kernels (not countable from outside)\n",
		"(rest)", rest, 100*ratio(rest, cpu))
	total, self := m.tr.byName()
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# spans over %d traced rounds (total / self ms):\n", len(m.tr.durations("round", "")))
	for _, n := range names {
		fmt.Printf("#   %-16s %10.2f %10.2f\n", n, float64(total[n])/1e6, float64(self[n])/1e6)
	}
	fmt.Printf("# GC events in traced rounds:")
	for k, n := range m.tr.gcEvents {
		if n > 0 {
			fmt.Printf(" %s=%d", core.EventKind(k), n)
		}
	}
	fmt.Println()
}
