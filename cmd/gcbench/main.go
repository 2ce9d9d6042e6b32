// Command gcbench regenerates the paper's evaluation figures: speedup
// sweeps of the five benchmarks over thread counts, machines, and page
// placement policies. Sweep points are independent deterministic
// simulations, so they run on the sweep runner's worker pool (-j); results
// are identical for any worker count.
//
// Usage:
//
//	gcbench -figure 5                 # regenerate Figure 5 (AMD, local)
//	gcbench -figure 4 -scale 0.5      # Figure 4 at half workload scale
//	gcbench -machine amd48 -policy interleaved -threads 1,8,48 -bench dmm
//	gcbench -all                      # Figures 4-7
//	gcbench -all -j 8                 # ... with 8 sweep workers
//	gcbench -server                   # message-passing server sweep (both machines, all policies)
//	gcbench -latency                  # open-loop latency sweep (tail latency under GC)
//	gcbench -overload                 # overload sweep (goodput/SLO vs offered load, faulted points)
//	gcbench -overload -loads 80000,40000 -admission deadline -fault-seed 7
//	gcbench -mempressure              # memory-pressure sweep (bounded heaps, emergency GC, memory-aware admission)
//	gcbench -mempressure -budgets 0,20,16 -admission memory
//	gcbench -rackscale                # rack-scale sweep (paper machines + rack256, traffic split)
//	gcbench -rackscale -machines rack256,rack1024 -scale 0.1
//	gcbench -failover                 # failover sweep (replicated serving under crash faults)
//	gcbench -failover -crash board -replicas 2,4
//	gcbench -all -par 4               # ... with 4 span workers per simulation (bit-identical)
//	gcbench -baseline BENCH_v3.json   # record a perf baseline (JSON)
//	gcbench -compare BENCH_v*.json    # fail on any virtual-time drift
//	gcbench -latency -gc concurrent   # ... under the mostly-concurrent global collector
//	gcbench -latency -gc both         # ... under both collectors, side by side
//	gcbench -latency -baseline LATENCY_v2.json   # record the latency baseline (always both collectors)
//	gcbench -latency -compare LATENCY_v*.json    # latency drift gate
//	gcbench -overload -compare OVERLOAD_v*.json  # overload drift gate
//	gcbench -mempressure -compare MEMPRESSURE_v*.json  # memory-pressure drift gate
//	gcbench -rackscale -compare SCALE_v*.json    # rack-scale drift gate
//	gcbench -failover -compare FAILOVER_v*.json  # failover drift gate
//	gcbench -events                   # the event-digest matrix: SHA-256 of gctrace -events per configuration
//	gcbench -events -compare EVENTS_v*.json      # event-order gate: names the first diverging window
//	gcbench -figure 5 -j 1 -cpuprofile cpu.prof -memprofile mem.prof  # host profiles of any mode
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/mempage"
	"repro/internal/numa"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Modes go by the flag that selects them; the two without a flag of their own
// are selected by giving no mode flag at all.
const (
	modeCustom     = "the custom sweep (no mode flag)"        // -machine/-policy/-threads/-bench
	modeThroughput = "the throughput baseline (no mode flag)" // -baseline/-compare alone: the BENCH_v*.json suite
)

// modeFlags are the mutually exclusive mode-selecting flags.
var modeFlags = []string{"-figure", "-all", "-server", "-latency", "-overload", "-mempressure", "-rackscale", "-failover", "-events"}

// flagUse is one flag's row of the compatibility table: the modes that read
// it (nil: every mode) and whether a -baseline/-compare run may carry it.
// Baselines are only comparable across PRs when they are always recorded at
// the one fixed configuration, so a baseline run admits only flags that
// cannot change virtual results (-j, -par, -v).
type flagUse struct {
	modes    []string
	baseline bool
}

// flagUses is the compatibility table. A flag set outside the modes that
// read it is rejected rather than silently ignored; the mode flags
// themselves are policed by their mutual exclusion instead.
var flagUses = map[string]flagUse{
	"j":          {nil, true},
	"par":        {parModes, true},
	"v":          {nil, true},
	"cpuprofile": {nil, true},
	"memprofile": {nil, true},
	"baseline":   {kindModes, true},
	"compare":    {kindModes, true},
	"gc":         {[]string{"-latency"}, false},
	"scale":      {[]string{modeCustom, "-figure", "-all", "-server", "-rackscale"}, false},
	"bench":      {[]string{modeCustom, "-figure", "-all"}, false},
	"machine":    {[]string{modeCustom}, false},
	"policy":     {[]string{modeCustom}, false},
	"threads":    {[]string{modeCustom}, false},
	"loads":      {[]string{"-overload"}, false},
	"admission":  {[]string{"-overload", "-mempressure"}, false},
	"fault-seed": {[]string{"-overload", "-mempressure"}, false},
	"budgets":    {[]string{"-mempressure"}, false},
	"machines":   {[]string{"-rackscale"}, false},
	"crash":      {[]string{"-failover"}, false},
	"replicas":   {[]string{"-failover"}, false},
}

// parModes are the modes -par applies to: all but -events, whose
// configurations carry their own.
var parModes = []string{modeCustom, modeThroughput, "-figure", "-all", "-server", "-latency", "-overload", "-mempressure", "-rackscale", "-failover"}

// checkFlagUse applies the compatibility table to one set flag.
func checkFlagUse(name, mode string, baselineRun bool) error {
	u, ok := flagUses[name]
	if !ok {
		return nil // a mode flag
	}
	if u.modes != nil && !slices.Contains(u.modes, mode) {
		return fmt.Errorf("-%s applies only to %s, not to %s; remove it", name, strings.Join(u.modes, ", "), mode)
	}
	if baselineRun && !u.baseline {
		return fmt.Errorf("-baseline/-compare measure that sweep's fixed configuration; remove -%s", name)
	}
	return nil
}

// parseList parses a comma-separated flag value element by element into
// *dst; an empty value leaves *dst, the flag's default, alone. parse rejects
// (never clamps) a bad element.
func parseList[T any](s string, dst *[]T, parse func(string) (T, error)) error {
	if s == "" {
		return nil
	}
	*dst = nil
	for _, field := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(field))
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

// known turns a name lookup into a list-element parser that keeps the name.
func known[T any](lookup func(string) (T, error)) func(string) (string, error) {
	return func(name string) (string, error) {
		_, err := lookup(name)
		return name, err
	}
}

// intAtLeast parses one integer element of -flagName, rejecting a value
// below min as "not <what>".
func intAtLeast(flagName string, min int, what string) func(string) (int, error) {
	return func(field string) (int, error) {
		v, err := strconv.Atoi(field)
		if err != nil {
			return 0, fmt.Errorf("bad -%s value %q: %w", flagName, field, err)
		}
		if v < min {
			return 0, fmt.Errorf("-%s value %d is not %s", flagName, v, what)
		}
		return v, nil
	}
}

// errFlagSyntax reports a command line the flag package rejected (and has
// already described on stderr).
var errFlagSyntax = errors.New("flag syntax")

// run is the whole command behind an exit status: 0 ok, 1 rejected input or
// baseline drift, 2 flag syntax.
func run(args []string, stdout, stderr io.Writer) int {
	switch err := gcbench(args, stdout, stderr); {
	case err == nil:
		return 0
	case errors.Is(err, errFlagSyntax):
		return 2
	default:
		fmt.Fprintln(stderr, "gcbench:", err)
		return 1
	}
}

// gcbench parses and validates args, then measures and reports.
func gcbench(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figure    = fs.Int("figure", 0, "paper figure to regenerate (4-7)")
		all       = fs.Bool("all", false, "regenerate all figures (4-7)")
		server    = fs.Bool("server", false, "sweep the message-passing server workload (both machines, all three policies)")
		latency   = fs.Bool("latency", false, "sweep the open-loop latency harness: tail latency under GC with pause attribution (fixed configuration)")
		gcMode    = fs.String("gc", "stw", "with -latency: global collector(s) to sweep (stw, concurrent, both); -baseline/-compare always measure both")
		overload  = fs.Bool("overload", false, "sweep the overload harness: goodput/SLO vs offered load per admission policy, with faulted points")
		mempress  = fs.Bool("mempressure", false, "sweep the memory-pressure harness: bounded-heap budget ladder per admission policy, with squeeze-fault points")
		rackscale = fs.Bool("rackscale", false, "sweep the rack-scale harness: full-core-count makespans and NUMA traffic split on the paper machines and rack presets")
		failover  = fs.Bool("failover", false, "sweep the failover harness: replicated serving pools under injected crash faults (single-vproc kills, correlated board kill on rack256)")
		events    = fs.Bool("events", false, "run the event-digest matrix: every configuration of gctrace.EventsMatrix with -events, digested (SHA-256 of the event stream and summary)")
		crashes   = fs.String("crash", "", "with -failover: comma-separated crash kinds (none, vproc, board; default: the fixed schedule)")
		replicas  = fs.String("replicas", "", "with -failover: comma-separated replication levels (default: the fixed 1-4 ladder)")
		machines  = fs.String("machines", "", "with -rackscale: comma-separated machine presets (amd48, intel32, rack256, rack1024, rack4096; default: the fixed amd48,intel32,rack256 set)")
		budgets   = fs.String("budgets", "", "with -mempressure: comma-separated global chunk budgets (0 = unbounded; default: the 0/32/24/16 ladder)")
		scale     = fs.Float64("scale", 1.0, "workload scale (1.0 = default reduced sizes)")
		machine   = fs.String("machine", "amd48", "machine preset for custom sweeps (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = fs.String("policy", "local", "page placement policy (local, interleaved, single-node)")
		threads   = fs.String("threads", "", "comma-separated thread counts for custom sweeps")
		benches   = fs.String("bench", "", "comma-separated benchmark subset (default: the five paper benchmarks)")
		loads     = fs.String("loads", "", "with -overload: comma-separated mean inter-arrival gaps in virtual ns (default: the 0.4x/1x/2x/4x saturation ladder)")
		admission = fs.String("admission", "", "with -overload/-mempressure: comma-separated admission policies (none, queue, deadline, memory; default: that sweep's fixed set)")
		faultSeed = fs.Uint64("fault-seed", bench.OverloadFaultSeed, "with -overload: seed of the faulted top-load points; with -mempressure: seed of the squeeze points (0 disables them)")
		verbose   = fs.Bool("v", false, "print per-run progress")
		workers   = fs.Int("j", runtime.GOMAXPROCS(0), "sweep points to run concurrently (virtual results are identical for any value)")
		par       = fs.Int("par", 1, "span workers per simulation: the engine drains interaction-free idle machines concurrently between conservative windows (virtual results are identical for any value)")
		baseline  = fs.String("baseline", "", "write a perf-baseline JSON to this file (with -latency/-overload: that sweep's baseline)")
		compare   = fs.String("compare", "", "re-run the baseline configuration and fail on any virtual drift vs this JSON file")
		cpuprof   = fs.String("cpuprofile", "", "write a host CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a host allocation profile to this file when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagSyntax
	}

	// Value validation, for every flag whether or not the mode reads it:
	// a bad value must fail here with an actionable message, not surface
	// as a Config.Validate error deep inside a sweep — or worse, be
	// silently clamped into a run that looks like a real result
	// (workload scaling clamps non-positive sizes to 1). A serving
	// sweep's points are checked whole, by ServeOptions.Validate, before
	// the sweep measures any of them.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		return fmt.Errorf("-scale %v is not a positive workload scale", *scale)
	}
	if *workers < 1 {
		return fmt.Errorf("-j %d is not a positive worker count", *workers)
	}
	if *par < 1 {
		return fmt.Errorf("-par %d is not a positive span-worker count (1 = serial engine)", *par)
	}
	if *figure != 0 && (*figure < 4 || *figure > 7) {
		return fmt.Errorf("-figure %d out of range: the paper's figures are 4-7", *figure)
	}
	sw := sweeps{
		opt:         bench.Options{Scale: *scale, Workers: *workers, Par: *par},
		overload:    bench.DefaultOverloadSweep(),
		mempressure: bench.DefaultMempressureSweep(),
		rackscale:   bench.DefaultScaleSweep(),
		failover:    bench.DefaultFailoverSweep(),
	}
	if sw.gcs, err = bench.GCModes(*gcMode); err != nil {
		return err
	}
	var admissions []workload.AdmissionPolicy
	for _, err := range []error{
		parseList(*benches, &sw.opt.Benchmarks, known(workload.ByName)),
		parseList(*crashes, &sw.failover.Crashes, workload.ParseCrashKind),
		parseList(*replicas, &sw.failover.Replicas, intAtLeast("replicas", 1, "a positive replication level")),
		parseList(*machines, &sw.rackscale.Machines, known(numa.Preset)),
		parseList(*budgets, &sw.mempressure.Budgets, func(field string) (int, error) {
			b, err := intAtLeast("budgets", 0, "a chunk budget (0 = unbounded)")(field)
			if err == nil && b > 0 && b < bench.MempressureThreads {
				err = fmt.Errorf("-budgets value %d is below the %d-vproc pool (every vproc needs at least one chunk)", b, bench.MempressureThreads)
			}
			return b, err
		}),
		parseList(*loads, &sw.overload.Loads, func(field string) (bench.OverloadLoad, error) {
			gap, err := intAtLeast("loads", 2, "a usable inter-arrival gap (need >= 2 ns)")(field)
			return bench.OverloadLoad{Name: fmt.Sprintf("%dns", gap), MeanGapNs: int64(gap)}, err
		}),
		parseList(*admission, &admissions, workload.ParseAdmission),
	} {
		if err != nil {
			return err
		}
	}
	if admissions != nil {
		sw.overload.Admissions, sw.mempressure.Admissions = admissions, admissions
	}

	// Mode: the one mode flag given, or one of the two flagless modes.
	baselineRun := *baseline != "" || *compare != ""
	mode := modeCustom
	if baselineRun {
		mode = modeThroughput
	}
	var given []string
	for i, on := range []bool{*figure != 0, *all, *server, *latency, *overload, *mempress, *rackscale, *failover, *events} {
		if on {
			mode = modeFlags[i]
			given = append(given, mode)
		}
	}
	if len(given) > 1 {
		return fmt.Errorf("%s are mutually exclusive modes; got %s", strings.Join(modeFlags, ", "), strings.Join(given, " and "))
	}
	if *baseline != "" && *compare != "" {
		return fmt.Errorf("-baseline and -compare are mutually exclusive")
	}
	// Compatibility: one pass over the flags actually set (fs.Visit walks
	// them in name order, so the first complaint is deterministic).
	var useErr error
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if useErr == nil {
			useErr = checkFlagUse(f.Name, mode, baselineRun)
		}
	})
	if useErr != nil {
		return useErr
	}

	// Flags whose default depends on the mode that reads them. The latency
	// baseline is the one matrix of both collectors.
	if baselineRun {
		sw.gcs, _ = bench.GCModes("both")
	}
	sw.overload.FaultSeed = *faultSeed
	if set["fault-seed"] {
		sw.mempressure.SqueezeSeed = *faultSeed
	}
	if set["scale"] {
		sw.rackscale.Scale = *scale
	}
	if *verbose {
		sw.opt.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	// Everything below is the measurement: profile it if asked to.
	stopProfiles, err := bench.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	if k := sw.kinds()[mode]; k != nil {
		switch {
		case *baseline != "":
			return k.write(*baseline)
		case *compare != "":
			return k.compare(*compare, stdout, stderr)
		}
		return k.print(stdout)
	}

	show := func(f bench.Figure) { fmt.Fprintln(stdout, f.Render()) }
	switch mode {
	case "-server":
		figs, err := bench.RunServerFigures(sw.opt)
		if err != nil {
			return err
		}
		for _, f := range figs {
			show(f)
		}
	case "-all", "-figure":
		ids := []int{*figure}
		if mode == "-all" {
			ids = []int{4, 5, 6, 7}
		}
		for _, id := range ids {
			f, err := bench.RunFigure(id, sw.opt)
			if err != nil {
				return err
			}
			show(f)
		}
	default:
		topo, err := numa.Preset(*machine)
		if err != nil {
			return err
		}
		pol, err := mempage.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		ts := bench.AMDThreads
		if topo.Name == "intel32" {
			ts = bench.IntelThreads
		}
		if err := parseList(*threads, &ts, func(field string) (int, error) {
			n, err := intAtLeast("threads", 1, "a positive thread count")(field)
			if err == nil && n > topo.NumCores() {
				err = fmt.Errorf("-threads value %d out of range [1,%d] for machine %s", n, topo.NumCores(), topo.Name)
			}
			return n, err
		}); err != nil {
			return err
		}
		f, err := bench.MeasureSweep(topo, pol, ts, sw.opt)
		if err != nil {
			return err
		}
		show(f)
	}
	return nil
}
