// Command benchmark is the repository's host-performance benchmark: five
// workloads that each load a different layer of the simulator, measured
// against a calibration kernel so a busy neighbour does not move the
// result, plus a probe suite and a traced run that split the end-to-end
// numbers by layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/numa"
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as -out stores it and -compare reads it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type options struct {
	workload   string
	trace      string
	cpuprofile string
	out        string
	run        runOptions
}

func main() {
	var (
		o       options
		probes  bool
		compare bool
		spec    string
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: every workload, each in its own process)")
	flag.Uint64Var(&o.run.seed, "seed", core.DefaultConfig(numa.AMD48(), 1).Seed, "workload seed; becomes Config.Seed of every point")
	flag.Float64Var(&o.run.seconds, "seconds", 16, "time box for the timed rounds of one workload")
	flag.IntVar(&o.run.rounds, "rounds", 0, "run exactly this many timed rounds instead of a time box")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics; 1: traced run with per-layer metrics (default: 0 for one workload, both for all)")
	flag.StringVar(&o.run.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the workload run to this file")
	flag.StringVar(&o.out, "out", "", "append each run's result to this file, one JSON record per line (input of -compare)")
	flag.BoolVar(&o.run.quick, "quick", false, "one set-up and scaled-down probes (what the test runs)")
	flag.BoolVar(&probes, "probes", false, "run only the per-layer probe suite")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark description holding the regression bounds (for -compare)")
	flag.Parse()

	var err error
	switch {
	case compare:
		err = compareFiles(spec, flag.Args())
	case probes:
		err = printProbes(o.run.quick)
	case o.workload != "":
		err = runChild(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// printMetrics prints `name value unit` per line in a fixed order.
func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %18.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printProbes(quick bool) error {
	m := runProbes(quick)
	printMetrics(m)
	line, err := json.Marshal(struct {
		Probes map[string]metricValue `json:"probes"`
	}{m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild measures one workload in this process and prints its result as
// the last line of standard output.
func runChild(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	switch o.trace {
	case "", "0":
	case "1":
		o.run.trace = true
		if o.run.traceOut == "" {
			o.run.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", o.trace)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	m, err := measure(&w, o.run)
	if err != nil {
		return err
	}
	res := result{Attempted: m.tl.attempted, Failed: len(m.tl.failures)}
	res.Correct = res.Failed == 0
	if o.run.trace {
		probes := runProbes(o.run.quick)
		res.Metrics = m.perLayer(probes)
		m.printDecomposition(probes)
		fmt.Printf("# trace: %d spans in %s, points cover >= %.1f %% of every round\n",
			len(m.tr.spans), o.run.traceOut, 100*m.tr.pointCoverage())
	} else {
		res.Metrics = m.endToEnd()
	}
	_, pct := highPercentile(m.pick(false, calRel))
	fmt.Printf("# workload %s seed %d: %d timed rounds, round_cal_hi is p%.0f, GOMAXPROCS %d, %d of %d points failed\n",
		w.name, o.run.seed, len(m.rounds), pct, m.gomaxprocs, res.Failed, res.Attempted)
	printMetrics(res.Metrics)

	rec := runRecord{Workload: w.name, Seed: o.run.seed, result: res}
	if o.run.trace {
		rec.Trace = 1
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d points failed a check", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a process of its own, so set-up time, peak
// RSS and Go GC state are per workload.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traces := []string{"0", "1"}
	if o.trace != "" {
		traces = []string{o.trace}
	}
	failed := 0
	for _, w := range workloads() {
		for _, tr := range traces {
			args := []string{
				"-workload", w.name, "-trace", tr,
				"-seed", fmt.Sprint(o.run.seed), "-seconds", fmt.Sprint(o.run.seconds), "-rounds", fmt.Sprint(o.run.rounds),
			}
			if o.run.quick {
				args = append(args, "-quick")
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			if o.cpuprofile != "" {
				args = append(args, "-cpuprofile", fmt.Sprintf("%s.%s.%s", o.cpuprofile, w.name, tr))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: workload %s trace %s: %v\n", w.name, tr, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed", failed)
	}
	return nil
}

// readRecords loads an -out file: one JSON record after another.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	for dec := json.NewDecoder(f); ; {
		var r runRecord
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// appendRecord adds one JSON line to an -out file.
func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
