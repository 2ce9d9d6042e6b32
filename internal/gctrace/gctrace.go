// Package gctrace is the gctrace command (cmd/gctrace is its main): it runs
// one benchmark and reports the garbage collector's behaviour: per-phase
// event counts, copied volumes, pause profile, and the runtime statistics
// behind them. With -latency it instead runs the open-loop traffic harness
// at one sweep-style configuration; with -overload, -mempressure or
// -failover the serving harness (workload.RunServe) as one point of the
// matching gcbench sweep — one offered load and admission policy, optionally
// with a seeded fault plan; the same against a bounded heap (-budget chunks,
// optionally with a seeded transient squeeze); or a replicated pool under
// one injected crash. Every harness prints the latency percentiles with the
// per-request GC-pause attribution breakdown — which collection phases
// overlapped the completed requests' lifetimes in each latency band — and
// the serving harnesses then one serving accounting block: goodput/SLO,
// every resolution of the exactly-once ledger, retries and routing, injected
// faults, the memory-pressure counters, and the crash impact with its lost
// work. Every run, a plain benchmark run included, is one bench.Point that
// the flags name, run by Point.Measure exactly as the sweeps run theirs: a
// line that names a committed baseline point prints that point's makespan
// and checksum.
//
// Usage:
//
//	gctrace -bench barnes-hut -p 24 -scale 0.5
//	gctrace -bench synthetic -events          # print every GC event
//	gctrace -bench barnes-hut -p 48 -engine -cpuprofile cpu.prof  # scheduler counters + host CPU profile
//	gctrace -bench smvm -machine rack256 -p 256 -scale 0.1
//	gctrace -latency                          # tail latency under GC, attribution table
//	gctrace -latency -gap 100000 -policy single-node
//	gctrace -latency -gc concurrent           # mostly-concurrent collector: window/assist/barrier attribution
//	gctrace -overload -p 16 -gap 80000 -admission deadline
//	gctrace -overload -p 16 -gap 40000 -admission queue -fault-seed 0xfa115afe
//	gctrace -mempressure -p 16 -gap 40000 -admission memory -budget 24
//	gctrace -mempressure -p 16 -gap 40000 -admission queue -fault-seed 0x5c0ee2e1
//	gctrace -failover -p 16 -replicas 2 -crash vproc
//	gctrace -failover -machine rack256 -p 32 -replicas 4 -crash board
//	gctrace -failover -p 16 -replicas 2 -crash vproc -hedge 30000
package gctrace

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// BenchRun names the harness-less mode in the compatibility table; the
// harnesses go by the flag that selects them.
const BenchRun = "a benchmark run (no harness flag)"

// HarnessFlags are the mutually exclusive harness-selecting flags.
var HarnessFlags = []string{"-latency", "-overload", "-mempressure", "-failover"}

// FlagHarnesses is the compatibility table: for each flag that only some
// harnesses read, which ones. The traffic harnesses have fixed workload
// shapes (-bench/-scale do nothing under them), -gap only means anything to
// the load-driven harnesses, the admission/fault knobs to the overload and
// memory-pressure harnesses, the budget to the latter, and the
// crash/replication knobs to -failover. Flags without a row (machine,
// policy, p, gc, the reports, the host profiles) apply everywhere.
var FlagHarnesses = map[string][]string{
	"bench":      {BenchRun},
	"scale":      {BenchRun},
	"gap":        {"-latency", "-overload", "-mempressure"},
	"admission":  {"-overload", "-mempressure"},
	"fault-seed": {"-overload", "-mempressure"},
	"budget":     {"-mempressure"},
	"replicas":   {"-failover"},
	"crash":      {"-failover"},
	"hedge":      {"-failover"},
}

// errFlagSyntax marks a command line the flag package already reported on
// stderr (with the usage text); Run turns it into exit status 2.
var errFlagSyntax = errors.New("flag syntax")

// Run is the command without the process: it returns the exit status — 0
// done, 1 rejected input (one line on stderr), 2 flag syntax — so tests and
// the event-digest matrix drive the whole command in-process.
func Run(args []string, stdout, stderr io.Writer) int {
	switch err := gctrace(args, stdout, stderr); {
	case err == nil:
		return 0
	case errors.Is(err, errFlagSyntax):
		return 2
	default:
		fmt.Fprintln(stderr, "gctrace:", err)
		return 1
	}
}

// gctrace parses and validates args, then runs one simulation and reports.
func gctrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "synthetic", "benchmark to run")
		machine   = fs.String("machine", "amd48", "machine preset (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = fs.String("policy", "local", "page placement policy")
		vprocs    = fs.Int("p", 8, "number of vprocs")
		scale     = fs.Float64("scale", 1.0, "workload scale")
		events    = fs.Bool("events", false, "print every GC event")
		latency   = fs.Bool("latency", false, "run the open-loop latency harness (GC-pressure heap shape) and print the pause-attribution breakdown")
		overload  = fs.Bool("overload", false, "run the overload harness (GC-pressure heap shape) and print the goodput/SLO and shed/retry accounting")
		mempress  = fs.Bool("mempressure", false, "run the overload harness against a bounded heap and print the memory-pressure accounting")
		failover  = fs.Bool("failover", false, "run the replicated serving harness under one injected crash fault and print the partial-failure accounting")
		replicasN = fs.Int("replicas", 2, "with -failover: replication level of the serving pool")
		crashFlag = fs.String("crash", "vproc", "with -failover: crash kind (none, vproc, board) injected at the sweep's fixed instant")
		hedge     = fs.Int64("hedge", 0, "with -failover: hedge delay in virtual ns (0 = no hedged requests)")
		gap       = fs.Int64("gap", 400_000, "with -latency/-overload/-mempressure: mean per-client inter-arrival gap in virtual ns (offered load)")
		admission = fs.String("admission", "deadline", "with -overload/-mempressure: admission policy (none, queue, deadline, memory)")
		faultSeed = fs.Uint64("fault-seed", 0, "with -overload: seed a fault plan of stalls and bursts; with -mempressure: seed a transient budget squeeze (0 = no faults)")
		budget    = fs.Int("budget", 0, "with -mempressure: global heap budget in chunks (0 = unbounded)")
		engine    = fs.Bool("engine", false, "print the engine's scheduler counters: token handoffs (and handoffs per 1,000 allocated words), inline turns, dozes and wakes, and the ready tree's pushes, moves and re-keys")
		gcMode    = fs.String("gc", "stw", "global collector (stw, concurrent)")
		cpuprof   = fs.String("cpuprofile", "", "write a host CPU profile of the simulation to this file")
		memprof   = fs.String("memprofile", "", "write a host allocation profile to this file when the simulation ends")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagSyntax
	}

	// Reject, never clamp: an unknown collector name must not silently run
	// the default and report numbers for the wrong collector.
	var concurrentGC bool
	switch *gcMode {
	case "stw":
	case "concurrent":
		concurrentGC = true
	default:
		return fmt.Errorf("unknown -gc mode %q (stw, concurrent)", *gcMode)
	}

	topo, err := numa.Preset(*machine)
	if err != nil {
		return err
	}
	pol, err := mempage.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	// Validate flags up front with actionable errors: a bad scale would
	// otherwise be silently clamped into a scale-1 run that looks like a
	// real result, a bad -p would panic deep inside Config.normalize, and a
	// bad admission name must fail here, not half-run first.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		return fmt.Errorf("-scale %v is not a positive workload scale", *scale)
	}
	if *vprocs < 1 || *vprocs > topo.NumCores() {
		return fmt.Errorf("-p %d out of range [1,%d] for machine %s", *vprocs, topo.NumCores(), topo.Name)
	}
	if *gap < 2 {
		return fmt.Errorf("-gap %d is not a usable inter-arrival gap (need >= 2 ns)", *gap)
	}
	// The harness: the one harness flag given, or a plain benchmark run.
	harnessName := BenchRun
	for i, on := range []bool{*latency, *overload, *mempress, *failover} {
		if !on {
			continue
		}
		if harnessName != BenchRun {
			return fmt.Errorf("%s are mutually exclusive harnesses; got %s and %s", strings.Join(HarnessFlags, ", "), harnessName, HarnessFlags[i])
		}
		harnessName = HarnessFlags[i]
	}
	harness := harnessName != BenchRun
	if *budget < 0 {
		return fmt.Errorf("-budget %d is negative (0 = unbounded)", *budget)
	}
	if *budget > 0 && *budget < *vprocs {
		return fmt.Errorf("-budget %d is below -p %d (every vproc needs at least one chunk)", *budget, *vprocs)
	}
	if *replicasN < 1 {
		return fmt.Errorf("-replicas %d is not a positive replication level", *replicasN)
	}
	// Reject flag combinations that would otherwise be silently ignored: one
	// pass of the compatibility table over the flags actually set.
	var foreign error
	fs.Visit(func(f *flag.Flag) {
		if reads, ok := FlagHarnesses[f.Name]; ok && !slices.Contains(reads, harnessName) && foreign == nil {
			foreign = fmt.Errorf("-%s applies only to %s, not to %s; remove it", f.Name, strings.Join(reads, ", "), harnessName)
		}
	})
	if foreign != nil {
		return foreign
	}
	// Every run is one sweep point: the flags name a bench.Point, and
	// Point.Measure — the one way the sweeps run a point too — builds its
	// runtime and runs its harness, so the numbers printed here are the
	// baseline points' numbers. A serving point's options are validated, and
	// any fault plan built, before anything runs; they also head its report.
	pt := bench.Point{Machine: *machine, Policy: *policy, Threads: *vprocs, Budget: *budget}
	if concurrentGC {
		pt.GC = "concurrent"
	}
	switch {
	case *latency:
		pt.MeanGapNs = *gap
	case *overload:
		pt.Admission, pt.MeanGapNs, pt.FaultSeed = *admission, *gap, *faultSeed
	case *mempress:
		pt.Admission, pt.MeanGapNs, pt.SqueezeSeed = *admission, *gap, *faultSeed
	case *failover:
		pt.Replicas, pt.Crash, pt.HedgeDelayNs = *replicasN, *crashFlag, *hedge
		if *crashFlag != workload.CrashNone.String() {
			pt.CrashNs = bench.FailoverCrashNs
		}
	default:
		pt.Benchmark, pt.Scale = *benchName, *scale
	}
	serving := *overload || *mempress || *failover
	var opt workload.ServeOptions
	if serving {
		if opt, err = pt.ServeOptions(); err != nil {
			return err
		}
	}
	stopProfiles, err := bench.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}

	var counts [core.NumEventKinds]int
	var words [core.NumEventKinds]int64
	var ns [core.NumEventKinds]int64
	trace := func(ev core.GCEvent) {
		counts[ev.Kind]++
		words[ev.Kind] += ev.Words
		ns[ev.Kind] += ev.Ns
		if *events {
			fmt.Fprintf(stdout, "[%10d ns] vproc %-2d %-12s %8d words %8d ns\n",
				ev.At, ev.VProc, ev.Kind, ev.Words, ev.Ns)
		}
	}

	// The run: a point Measure rejects is one line like every rejected flag
	// above, and so is a panic inside the simulation (a harness leak check):
	// it surfaces on this goroutine.
	var rt *core.Runtime
	// A serving run's result; a latency run fills only what the latency
	// report reads: its completed requests and their Latencies.
	var sr workload.ServeResult
	var runErr error
	simErr := bench.Guard(func() { rt, sr, runErr = pt.Measure(trace) })
	if simErr != nil {
		runErr = fmt.Errorf("the simulation %w", simErr)
	}
	if err := stopProfiles(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	switch {
	case *latency:
		latOpt := pt.LatencyOptions()
		fmt.Fprintf(stdout, "open-loop latency harness on %s, policy %s, %d vprocs, %d clients x %d requests, mean gap %d ns\n",
			topo.Name, pol, *vprocs, latOpt.Clients, latOpt.Requests, *gap)
	case serving:
		fmt.Fprintf(stdout, "%s harness on %s, policy %s, %d vprocs, %d clients x %d requests, mean gap %d ns, admission %s, SLO %d ns\n",
			harnessName[1:], topo.Name, pol, *vprocs, opt.Clients, opt.Requests, opt.MeanGapNs, opt.Admission, workload.ServeSLONs)
		fmt.Fprintf(stdout, "%d replicas, crash %s at %d ns (virtual), hedge delay %d ns, heap budget %d chunks (0 = unbounded), fault seed %#x\n",
			opt.Replicas, opt.Crash, opt.CrashNs, opt.HedgeDelayNs, *budget, *faultSeed)
	default:
		fmt.Fprintf(stdout, "benchmark %s on %s, policy %s, %d vprocs, scale %.2f\n",
			*benchName, topo.Name, pol, *vprocs, *scale)
	}
	res := sr.Result
	s := res.Stats

	fmt.Fprintf(stdout, "elapsed (virtual): %.3f ms   checksum: %#x\n\n", float64(res.ElapsedNs)/1e6, res.Check)

	fmt.Fprintln(stdout, "collection phases:")
	width := 10 // the classic views' column
	if concurrentGC {
		width = len(core.EvTermination.String()) // the longest label shown
	}
	for _, k := range []core.EventKind{core.EvMinor, core.EvMajor, core.EvPromote, core.EvGlobalEnd, core.EvSnapshot, core.EvTermination, core.EvEmergency} {
		label := k.String()
		if k == core.EvGlobalEnd {
			label = "global"
			if concurrentGC {
				// The concurrent cycle's span is mutator-interleaved
				// mark time, not a pause; the two window rows below
				// carry the actual stop-the-world durations.
				label = "global-cycle"
			}
		}
		if (k == core.EvSnapshot || k == core.EvTermination) && !concurrentGC {
			// The STW collector never emits window events; keep its
			// phase table byte-identical to the classic views.
			continue
		}
		if k == core.EvEmergency && !*mempress {
			// Emergency ladder walks only exist under a bounded heap;
			// keep the classic views' phase table unchanged.
			continue
		}
		c := counts[k]
		if c == 0 {
			fmt.Fprintf(stdout, "  %-*s %6d\n", width, label, 0)
			continue
		}
		fmt.Fprintf(stdout, "  %-*s %6d   %10d words   avg %8.1f us\n",
			width, label, c, words[k], float64(ns[k])/float64(c)/1000)
	}

	us := func(v int64) float64 { return float64(v) / 1e3 }
	if harness {
		fmt.Fprintf(stdout, "\nrequest latency (virtual, from scheduled arrival):\n")
		fmt.Fprintf(stdout, "  p50 %.1f us   p90 %.1f us   p99 %.1f us   p99.9 %.1f us   (%d requests, %d timers fired)\n",
			us(sr.P50), us(sr.P90), us(sr.P99), us(sr.P999), sr.Completed, s.TimersFired)
		fmt.Fprintln(stdout, "\npause attribution (mean per request in band; local pools minor/major/promote over all vprocs, normalized by vproc count):")
		fmt.Fprintf(stdout, "  %-12s %8s %12s %14s %12s %12s\n", "band", "requests", "mean", "global-GC", "local-GC", "global-share")
		band := func(name string, b workload.AttributionBand) {
			fmt.Fprintf(stdout, "  %-12s %8d %10.1fus %12.1fus %10.1fus %11.0f%%\n",
				name, b.Count, us(b.MeanNs), us(b.Global.MeanNs), us(b.Local.MeanNs), b.GlobalShare()*100)
		}
		band("all", sr.All)
		band(">=p99.9", sr.Tail)
		fmt.Fprintf(stdout, "  (%d global collections overlapped tail-request lifetimes; largest single overlap %.1f us)\n",
			sr.Tail.GlobalGCs, us(sr.Tail.Global.MaxNs))
	}

	if serving {
		pct := func(n, d int) float64 {
			if d == 0 {
				return 0
			}
			return float64(n) / float64(d) * 100
		}
		mp := rt.MemPressure()
		fmt.Fprintf(stdout, "\nserving accounting (every offered request resolves exactly once):\n")
		fmt.Fprintf(stdout, "  offered   %6d requests over a %.1f us arrival window (%.2f/us)\n",
			sr.Offered, us(sr.WindowNs), float64(sr.Offered)/float64(sr.WindowNs)*1e3)
		fmt.Fprintf(stdout, "  completed %6d (%d within the SLO; goodput %.2f/us, SLO attainment %.0f%%)\n",
			sr.Completed, sr.GoodSLO, float64(sr.GoodSLO)/float64(res.ElapsedNs)*1e3, pct(sr.GoodSLO, sr.Offered))
		fmt.Fprintf(stdout, "  expired   %6d nacked server-side, %d past their deadline before a retry\n", sr.Expired, sr.FailedDeadline)
		fmt.Fprintf(stdout, "  shed      %6d with the retry budget spent, %d with every lane dead, %d to memory pressure\n",
			sr.ShedAdmission, sr.ShedFault, sr.ShedMemory)
		fmt.Fprintf(stdout, "  lost      %6d requests whose client chain died with a crashed vproc (%d pre-crash)\n", sr.LostClient, sr.LostPre)
		fmt.Fprintf(stdout, "  retries   %6d re-attempts (%d lane sheds), %d rerouted off a dead lane, %d hedged (%d hedge wins)\n",
			sr.Retries, s.ChanSheds, sr.Rerouted, sr.Hedged, sr.HedgeWins)
		fmt.Fprintf(stdout, "  breakers  %6d open transitions, %d fast-fails while all replicas were open, %d late replies dropped\n",
			sr.BreakerTrips, sr.FastFails, sr.LateReplies)
		fmt.Fprintf(stdout, "  faults    %6d injected: %.1f us stalled, %d words burst-allocated\n",
			s.FaultsInjected, us(s.FaultStallNs), s.FaultBurstWords)
		fmt.Fprintf(stdout, "  memory    %6d of %d active chunks at exit (0 = unbounded), %d words survived the last global collection\n",
			mp.ActiveChunks, mp.BudgetChunks, mp.SurvivedWords)
		fmt.Fprintf(stdout, "  pressure  %6d emergency ladder walks, %d failed allocations, %d chunk activations past the budget\n",
			mp.EmergencyGCs, mp.AllocFailed, mp.Overdrafts)
		num, den := sr.ServingGoodputPost()
		fmt.Fprintf(stdout, "  crashes   %6d vproc(s) crashed: %.0f%% goodput pre-crash (%d/%d), %.0f%% of surviving-client load post (%d/%d)\n",
			sr.Crashes, pct(sr.GoodPre, sr.OfferedPre), sr.GoodPre, sr.OfferedPre, pct(num, den), num, den)
		fmt.Fprintf(stdout, "  lost work %6d tasks, %d parked continuations, %d pending timers retired with crashed vprocs\n",
			s.LostTasks, s.LostConts, s.LostTimers)
	}

	fmt.Fprintln(stdout, "\nruntime totals:")
	fmt.Fprintf(stdout, "  tasks run          %10d\n", s.TasksRun)
	fmt.Fprintf(stdout, "  timers fired       %10d\n", s.TimersFired)
	fmt.Fprintf(stdout, "  steals             %10d (failed probes %d)\n", s.Steals, s.FailedSteals)
	fmt.Fprintf(stdout, "  allocated          %10d words\n", s.AllocWords)
	fmt.Fprintf(stdout, "  minor copied       %10d words\n", s.MinorCopied)
	fmt.Fprintf(stdout, "  major copied       %10d words\n", s.MajorCopied)
	fmt.Fprintf(stdout, "  promoted           %10d words in %d promotions\n", s.PromotedWords, s.Promotions)
	fmt.Fprintf(stdout, "  global collections %10d (%d words copied)\n", rt.Stats.GlobalGCs, rt.Stats.GlobalCopied)
	fmt.Fprintf(stdout, "  chunks created     %10d, reused %d, cross-node scans %d\n",
		rt.Chunks.Created, rt.Chunks.Reused, rt.Stats.CrossNodeScanned)
	cfg := rt.Cfg
	committed, localWords := rt.Space.CommittedWords(heap.RegionLocal), cfg.NumVProcs*cfg.LocalHeapWords
	fmt.Fprintf(stdout, "  local heaps committed %d of %d words (%.1f %%)\n",
		committed, localWords, float64(committed)/float64(localWords)*100)
	committed, chunkWords := rt.Space.CommittedWords(heap.RegionChunk), rt.Chunks.Created*cfg.ChunkWords
	fmt.Fprintf(stdout, "  global chunks committed %d of %d words (%.1f %%)\n",
		committed, chunkWords, float64(committed)/float64(max(chunkWords, 1))*100)
	fmt.Fprintf(stdout, "  local GC time      %10.3f ms, global GC time %.3f ms\n",
		float64(s.GCNs)/1e6, float64(rt.Stats.GlobalNs)/1e6)
	if concurrentGC {
		fmt.Fprintf(stdout, "  mark assists       %10d words scanned in %.3f ms of mutator assist time\n",
			s.MarkAssistWords, float64(s.MarkAssistNs)/1e6)
		fmt.Fprintf(stdout, "  write barrier      %10d shades that evacuated (%.3f ms charged)\n",
			s.BarrierHits, float64(s.BarrierNs)/1e6)
		fmt.Fprintf(stdout, "  stw windows        %10.3f ms snapshot + %.3f ms termination across %d cycles\n",
			float64(rt.Stats.SnapshotNs)/1e6, float64(rt.Stats.TermNs)/1e6, rt.Stats.GlobalGCs)
	}

	traffic := rt.Machine.Stats()
	fmt.Fprintln(stdout, "\nmodelled traffic:")
	fmt.Fprintf(stdout, "  local        %10.2f MB\n", float64(traffic.BytesByPath[numa.PathLocal])/1e6)
	fmt.Fprintf(stdout, "  same-package %10.2f MB\n", float64(traffic.BytesByPath[numa.PathSamePackage])/1e6)
	fmt.Fprintf(stdout, "  remote       %10.2f MB\n", float64(traffic.BytesByPath[numa.PathRemote])/1e6)
	if topo.Boards() > 1 {
		fmt.Fprintf(stdout, "  far (board)  %10.2f MB\n", float64(traffic.BytesByPath[numa.PathFar])/1e6)
	}
	fmt.Fprintf(stdout, "  cache        %10.2f MB\n", float64(traffic.CacheBytes)/1e6)

	if *engine {
		printEngineStats(stdout, rt.Eng.Stats(), rt.StepTaskTurns(), rt.StepDeclines(), s.AllocWords)
	}
	return nil
}

// printEngineStats is the -engine report; stepTurns and dec are the run's
// core.Runtime.StepTaskTurns and StepDeclines, and allocWords its
// VPStats.AllocWords, for the handoff ratio.
func printEngineStats(stdout io.Writer, st vtime.EngineStats, stepTurns int64, dec core.StepDeclines, allocWords int64) {
	fmt.Fprintln(stdout, "\nengine scheduler (slow-path work only; all figures deterministic):")
	fmt.Fprintf(stdout, "  handoffs      %10d token grants (coroutine switches to another proc's stack)\n", st.Grants)
	perKWord := 0.0
	if allocWords > 0 {
		perKWord = float64(st.Grants) * 1000 / float64(allocWords)
	}
	fmt.Fprintf(stdout, "                %10.2f handoffs per 1,000 allocated words\n", perKWord)
	fmt.Fprintf(stdout, "  inline turns  %10d step-machine turns run on the token holder's stack (%d of them step-task turns in idle sweeps)\n", st.InlineTurns, stepTurns)
	fmt.Fprintf(stdout, "  declines      %10d allocation cost forms (timer %d, thief %d, global GC %d, mark %d, nursery %d); send %d (record %d, chunk %d, mailbox %d); proxy %d (owner busy %d, promote %d, shade %d)\n",
		dec.Timer+dec.Thief+dec.GlobalGC+dec.Mark+dec.Nursery, dec.Timer, dec.Thief, dec.GlobalGC, dec.Mark, dec.Nursery,
		dec.Record+dec.Chunk+dec.Mailbox, dec.Record, dec.Chunk, dec.Mailbox,
		dec.OwnerBusy+dec.Promote+dec.Shade, dec.OwnerBusy, dec.Promote, dec.Shade)
	fmt.Fprintf(stdout, "  dozes         %10d step machines taken off the ready tree until a wake (%d wakes)\n", st.Dozes, st.Wakes)
	fmt.Fprintf(stdout, "  moves         %10d waiting procs moved earlier in the ready tree\n", st.Moves)
	fmt.Fprintf(stdout, "  pushes        %10d procs entering the ready tree\n", st.Pushes)
	fmt.Fprintf(stdout, "  root re-keys  %10d re-keys of the minimum (an inline turn, or a swap with the holder)\n", st.Rekeys)
}
