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
//	gcbench -latency                  # open-loop latency sweep (tail latency under GC, both collectors)
//	gcbench -overload                 # overload sweep (goodput/SLO vs offered load, faulted points)
//	gcbench -mempressure              # memory-pressure sweep (bounded heaps, emergency GC, memory-aware admission)
//	gcbench -rackscale                # rack-scale sweep (paper machines + rack256, traffic split)
//	gcbench -failover                 # failover sweep (replicated serving under crash faults)
//	gcbench -events                   # the event-digest matrix: SHA-256 of gctrace -events per configuration
//	gcbench -baseline BENCH_v4.json   # record the throughput baseline (JSON)
//	gcbench -latency -baseline LATENCY_v2.json   # record another sweep's baseline
//	gcbench -baseline HOSTALLOC_v1.json   # record the host-allocation gate (the file name selects it)
//	gcbench -compare LATENCY_v2.json  # drift gate: the file's content names its sweep
//	for f in *_v*.json; do gcbench -compare "$f"; done   # every drift gate
//	gcbench -figure 5 -j 1 -cpuprofile cpu.prof -memprofile mem.prof  # host profiles of any mode
//
// Every mode measures a list of bench.Point; -figure, -all, -server and the
// custom sweep build theirs from their flags. One point under other settings
// is a gctrace run: gctrace takes every identity field of a point as a flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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

// Modes go by the flag that selects them; the three without a flag of their
// own are selected by giving no mode flag at all (the host-allocation gate by
// its -baseline file's name).
const (
	modeCustom     = "the custom sweep (no mode flag)"         // -machine/-policy/-threads/-bench
	modeThroughput = "the throughput baseline (no mode flag)"  // -baseline alone, or -compare of a BENCH_v*.json file
	modeHostAlloc  = "the host-allocation gate (no mode flag)" // -baseline HOSTALLOC_*.json, or -compare of a HOSTALLOC_v*.json file
)

// modeFlags are the mutually exclusive mode-selecting flags.
var modeFlags = []string{"-figure", "-all", "-server", "-latency", "-overload", "-mempressure", "-rackscale", "-failover", "-events"}

// flagUses is the compatibility table: the modes that read each flag (nil:
// every mode). A flag set outside the modes that read it is rejected rather
// than silently ignored; the mode flags themselves are policed by their
// mutual exclusion instead. No flag that can change virtual results reads a
// mode with a kind: a baseline is comparable across changes only because it
// is always its kind's one fixed point list.
var flagUses = map[string][]string{
	"j":          nil,
	"v":          nil,
	"cpuprofile": nil,
	"memprofile": nil,
	"baseline":   kindModes,
	"compare":    kindModes,
	"scale":      {modeCustom, "-figure", "-all", "-server"},
	"bench":      {modeCustom, "-figure", "-all"},
	"machine":    {modeCustom},
	"policy":     {modeCustom},
	"threads":    {modeCustom},
}

// checkFlagUse applies the compatibility table to one set flag.
func checkFlagUse(name, mode string) error {
	modes, ok := flagUses[name]
	if !ok || modes == nil || slices.Contains(modes, mode) {
		return nil // a mode flag, or one this mode reads
	}
	return fmt.Errorf("-%s applies only to %s, not to %s; remove it", name, strings.Join(modes, ", "), mode)
}

// parseList parses flag name's comma-separated value element by element
// into *dst; an empty value leaves *dst, the flag's default, alone. parse
// rejects (never clamps) a bad element, and a repeated one is rejected too:
// a sweep measures each point once.
func parseList[T comparable](name, s string, dst *[]T, parse func(string) (T, error)) error {
	if s == "" {
		return nil
	}
	*dst = nil
	for _, field := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(field))
		if err != nil {
			return err
		}
		if slices.Contains(*dst, v) {
			return fmt.Errorf("-%s lists %v twice", name, v)
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
		latency   = fs.Bool("latency", false, "sweep the open-loop latency harness: tail latency under GC with pause attribution, under both collectors")
		overload  = fs.Bool("overload", false, "sweep the overload harness: goodput/SLO vs offered load per admission policy, with faulted points")
		mempress  = fs.Bool("mempressure", false, "sweep the memory-pressure harness: bounded-heap budget ladder per admission policy, with squeeze-fault points")
		rackscale = fs.Bool("rackscale", false, "sweep the rack-scale harness: full-core-count makespans and NUMA traffic split on the paper machines and rack presets")
		failover  = fs.Bool("failover", false, "sweep the failover harness: replicated serving pools under injected crash faults (single-vproc kills, correlated board kill on rack256)")
		events    = fs.Bool("events", false, "run the event-digest matrix: every configuration of gctrace.EventsMatrix with -events, digested (SHA-256 of the event stream and summary)")
		scale     = fs.Float64("scale", 1.0, "workload scale (1.0 = default reduced sizes)")
		machine   = fs.String("machine", "amd48", "machine preset for custom sweeps (amd48, intel32, rack256, rack1024, rack4096)")
		policy    = fs.String("policy", "local", "page placement policy (local, interleaved, single-node)")
		threads   = fs.String("threads", "", "comma-separated thread counts for custom sweeps")
		benches   = fs.String("bench", "", "comma-separated benchmark subset (default: the five paper benchmarks)")
		verbose   = fs.Bool("v", false, "print per-run progress")
		workers   = fs.Int("j", runtime.GOMAXPROCS(0), "sweep points to run concurrently (virtual results are identical for any value)")
		baseline  = fs.String("baseline", "", "write a perf-baseline JSON to this file (with a sweep's mode flag: that sweep's baseline)")
		compare   = fs.String("compare", "", "re-run the sweep this baseline JSON file records (its content names the sweep) and fail on any virtual drift")
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
	if *figure != 0 && (*figure < 4 || *figure > 7) {
		return fmt.Errorf("-figure %d out of range: the paper's figures are 4-7", *figure)
	}
	opt := bench.Options{Workers: *workers}
	benchList := bench.FigureBenchmarks
	if err := parseList("bench", *benches, &benchList, known(workload.ByName)); err != nil {
		return err
	}
	if *verbose {
		opt.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}
	ks := kinds(opt)

	// Mode: the one mode flag given, or one of the flagless modes, or for
	// -compare the kind of its file.
	mode := modeCustom
	switch {
	case strings.HasPrefix(filepath.Base(*baseline), "HOSTALLOC_"):
		mode = modeHostAlloc
	case *baseline != "":
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
	if *compare != "" {
		if len(given) > 0 {
			return fmt.Errorf("-compare finds the sweep in its file; remove %s", given[0])
		}
		if mode, err = identify(ks, *compare); err != nil {
			return err
		}
	}
	// Compatibility: one pass over the flags actually set (fs.Visit walks
	// them in name order, so the first complaint is deterministic).
	var useErr error
	fs.Visit(func(f *flag.Flag) {
		if useErr == nil {
			useErr = checkFlagUse(f.Name, mode)
		}
		if f.Name == "j" && *workers > 1 && mode == modeHostAlloc && useErr == nil {
			// Go's allocation counters are process-wide: a second
			// worker's run would count in the first's.
			useErr = fmt.Errorf("-j %d: %s measures one point at a time; remove -j", *workers, mode)
		}
	})
	if useErr != nil {
		return useErr
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

	if k := ks[mode]; k != nil {
		switch {
		case *baseline != "":
			return k.write(*baseline)
		case *compare != "":
			return k.compare(*compare, stdout, stderr)
		}
		return k.print(stdout)
	}

	// The throughput modes: build the mode's point list, measure it (every
	// point is checked before any runs), render its tables.
	var pts []bench.Point
	ids := []int{*figure} // 0 for the custom sweep
	switch mode {
	case "-all":
		ids = []int{4, 5, 6, 7}
		fallthrough
	case "-figure":
		if pts, err = bench.FigurePoints(ids, benchList, *scale); err != nil {
			return err
		}
	case "-server":
		ids, pts = []int{bench.ServerFigureID}, bench.ServerPoints(*scale)
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
		if err := parseList("threads", *threads, &ts, func(field string) (int, error) {
			n, err := strconv.Atoi(field)
			if err != nil {
				return 0, fmt.Errorf("bad -threads value %q: %w", field, err)
			}
			if n < 1 || n > topo.NumCores() {
				return 0, fmt.Errorf("-threads value %d out of range [1,%d] for machine %s", n, topo.NumCores(), topo.Name)
			}
			return n, nil
		}); err != nil {
			return err
		}
		pts = bench.SweepPoints(bench.Point{Machine: topo.Name, Policy: pol.String(), Scale: *scale}, benchList, ts)
	}
	if pts, err = bench.Measure(pts, opt.Workers, opt.Progress); err != nil {
		return err
	}
	for _, id := range ids {
		fmt.Fprintln(stdout, bench.RenderFigure(id, pts))
	}
	return nil
}
