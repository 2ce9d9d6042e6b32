package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gctrace"
)

// gctraceRun runs the command in-process and returns its exit status and
// output streams.
func gctraceRun(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = gctrace.Run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// expectRejected requires exit status 1, one line on stderr containing want,
// and nothing simulated (no stdout).
func expectRejected(t *testing.T, want string, args ...string) {
	t.Helper()
	status, stdout, stderr := gctraceRun(args...)
	if status != 1 || stdout != "" || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 ||
		strings.Contains(stderr, "panicked") {
		t.Errorf("gctrace %s: status %d, stdout %q, stderr %q; want status 1 and one line containing %q, not a panic",
			strings.Join(args, " "), status, stdout, stderr, want)
	}
}

// sampleValue is a well-formed value for each table flag, so a rejection in
// TestForeignFlagsRejected can only come from the compatibility table.
var sampleValue = map[string]string{
	"bench": "dmm", "scale": "0.5", "gap": "80000", "admission": "queue", "fault-seed": "7",
	"budget": "16", "replicas": "2", "crash": "vproc", "hedge": "30000",
}

// harnessArgs selects each harness on the command line.
func harnessArgs(h string) []string {
	if h == gctrace.BenchRun {
		return nil
	}
	return []string{h}
}

// TestForeignFlagsRejected: every (harness, flag) pair the compatibility
// table forbids exits 1 before simulating anything, naming the flag; and
// every row names real harnesses and a flag the command defines.
func TestForeignFlagsRejected(t *testing.T) {
	harnesses := append([]string{gctrace.BenchRun}, gctrace.HarnessFlags...)
	_, _, usage := gctraceRun("-h")
	for name, reads := range gctrace.FlagHarnesses {
		value, ok := sampleValue[name]
		if !ok {
			t.Errorf("no sample value for -%s", name)
			continue
		}
		if !strings.Contains(usage, "\n  -"+name+" ") {
			t.Errorf("gctrace.FlagHarnesses has a row for -%s, which the command does not define", name)
		}
		for _, h := range reads {
			if !slices.Contains(harnesses, h) {
				t.Errorf("-%s lists unknown harness %q", name, h)
			}
		}
		for _, h := range harnesses {
			if !slices.Contains(reads, h) {
				expectRejected(t, "-"+name+" applies only to", append(harnessArgs(h), "-"+name, value)...)
			}
		}
	}
}

// TestHarnessesMutuallyExclusive: any two harness flags together are
// rejected, naming both.
func TestHarnessesMutuallyExclusive(t *testing.T) {
	for i, a := range gctrace.HarnessFlags {
		for _, b := range gctrace.HarnessFlags[i+1:] {
			expectRejected(t, a+" and "+b, a, b)
		}
	}
}

// TestBadValuesRejected: an out-of-range or unknown flag value fails where it
// enters, with the flag or the bad value named, never inside the simulation.
func TestBadValuesRejected(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-scale", []string{"-scale", "0"}},
		{"-scale", []string{"-scale", "+Inf"}},
		{"-p", []string{"-p", "0"}},
		{"-p", []string{"-p", "49"}},
		{"-p", []string{"-machine", "intel32", "-p", "33"}},
		{"-gap", []string{"-latency", "-gap", "1"}},
		{"-budget", []string{"-mempressure", "-budget", "-1"}},
		{"-budget", []string{"-mempressure", "-p", "8", "-budget", "7"}},
		{"-gc", []string{"-gc", "nope"}},
		{"replicas 0", []string{"-failover", "-replicas", "0"}},
		{"hedge delay -1", []string{"-failover", "-hedge", "-1"}},
		{"crash vproc needs at least 2 vprocs", []string{"-failover", "-p", "1"}},
		{"crash board needs a multi-board machine", []string{"-failover", "-crash", "board"}}, // amd48 is one board
		{"crash board with replicas 1", []string{"-failover", "-machine", "rack256", "-p", "32", "-crash", "board", "-replicas", "1"}},
		// Sparse placement fills vproc 0's eight-node board before the
		// other: these used to panic inside the harness.
		{"crash board on rack256 needs at least 9 vprocs, got 2", []string{"-failover", "-machine", "rack256", "-p", "2", "-crash", "board"}},
		{"crash board on rack256 needs at least 9 vprocs, got 8", []string{"-failover", "-machine", "rack256", "-p", "8", "-crash", "board"}},
		{"crash board on rack1024 needs at least 17 vprocs, got 16", []string{"-failover", "-machine", "rack1024", "-p", "16", "-crash", "board"}},
		// The squeeze plan's range is p/4 chunks wide: these three used to
		// die in a divide by zero inside bench.MempressureFaultPlan.
		{"-fault-seed 0x1 needs -p >= 4", []string{"-mempressure", "-p", "1", "-fault-seed", "1"}},
		{"-fault-seed 0x1 needs -p >= 4", []string{"-mempressure", "-p", "2", "-fault-seed", "1"}},
		{"-fault-seed 0x1 needs -p >= 4", []string{"-mempressure", "-p", "3", "-fault-seed", "1"}},
		{`workload: unknown benchmark "failover"`, []string{"-bench", "failover", "-p", "1"}}, // a -failover run, not a benchmark; it used to panic inside the harness
		{"nope", []string{"-bench", "nope"}},
		{"nope", []string{"-machine", "nope"}},
		{"nope", []string{"-policy", "nope"}},
		{"nope", []string{"-overload", "-admission", "nope"}},
		{"nope", []string{"-failover", "-crash", "nope"}},
		// A scale whose largest object no chunk or fresh nursery holds, rejected
		// before the run: these used to panic inside the simulation (and,
		// before that, exit 2 with a Go trace).
		{"-bench smvm at -scale 64: an object of 131072 words exceeds chunk size 16384", []string{"-bench", "smvm", "-scale", "64", "-p", "4"}},
		{"-bench smvm at -scale 40: an object of 81920 words exceeds chunk size 16384", []string{"-bench", "smvm", "-p", "2", "-scale", "40"}},
		{"-bench barnes-hut at -scale 9: an object of 18432 words exceeds chunk size 16384", []string{"-bench", "barnes-hut", "-p", "2", "-scale", "9"}},
		{"-bench dmm at -scale 120: an object of 17280 words exceeds chunk size 16384", []string{"-bench", "dmm", "-p", "2", "-scale", "120"}},
		// Plans past the engine's clock, rejected before the run: an arrival
		// plan past the int64 clock used to wrap arrivals negative and run
		// without end, then to panic inside the run, and so did these gaps;
		// the hedges panicked in the engine or, wrapped negative, fired at
		// once.
		{"gctrace: workload: 6 requests per client at a mean gap of 9223372036854775807 ns can plan arrivals past", []string{"-latency", "-p", "2", "-gap", "9223372036854775807"}},
		{"gctrace: workload: 6 requests per client at a mean gap of 3074457345618258603 ns can plan arrivals past 2305843009213693951 ns, half the virtual clock of a 2-vproc run", []string{"-latency", "-p", "2", "-gap", "3074457345618258603"}},
		{"gctrace: workload: 6 requests per client at a mean gap of 9223372036854775807 ns, then the 330000 ns horizon", []string{"-overload", "-p", "16", "-gap", "9223372036854775807"}},
		{"gctrace: workload: 6 requests per client at a mean gap of 400000 ns, then the 330000 ns horizon and a 4611686018427387904 ns hedge delay", []string{"-failover", "-p", "16", "-replicas", "2", "-crash", "none", "-hedge", "4611686018427387904"}},
		{"gctrace: workload: 6 requests per client at a mean gap of 400000 ns, then the 330000 ns horizon and a 9223372036854000000 ns hedge delay", []string{"-failover", "-p", "16", "-replicas", "2", "-crash", "none", "-hedge", "9223372036854000000"}},
	} {
		expectRejected(t, tc.want, tc.args...)
	}
	if status, _, _ := gctraceRun("-p", "x"); status != 2 {
		t.Errorf("-p x: status %d, want the flag package's 2", status)
	}
}

// TestHarnessSmoke runs each harness once at a small vproc count and checks
// the report carries that harness's section.
func TestHarnessSmoke(t *testing.T) {
	for _, tc := range []struct {
		sections []string
		args     []string
	}{
		// Two 16 K-word chunks, each committed to its second (512-word) step.
		{[]string{"benchmark dmm on amd48", "global chunks committed 1024 of 32768 words (3.1 %)"},
			[]string{"-bench", "dmm", "-p", "2", "-scale", "0.1", "-engine"}},
		// 8 handoffs for 46,290 words: the churn loop's allocations are inline turns.
		{[]string{" 0.17 handoffs per 1,000 allocated words"}, []string{"-bench", "synthetic", "-p", "2", "-scale", "0.1", "-engine"}},
		// Idle vprocs wait out the tree build and each phase's tail with
		// their sweeps dozing off the ready tree. Pushes and re-keys are the
		// ready set's whole slow-path work: a tree has no shift to count.
		{[]string{"benchmark barnes-hut on amd48", "dozes                 31 step machines taken off the ready tree",
			"pushes              1462 procs entering", "root re-keys       76876 re-keys of the minimum"},
			[]string{"-bench", "barnes-hut", "-p", "4", "-scale", "0.1", "-engine"}},
		// Idle serving vprocs have timers armed: their sweeps doze in the
		// ready tree until a deadline, and each push or claimed timeout
		// moves one of them earlier.
		{[]string{"pause attribution", "dozes                 24 step machines taken off the ready tree",
			"moves               3802 waiting procs moved earlier"},
			[]string{"-latency", "-p", "4", "-gc", "concurrent", "-engine"}},
		{[]string{"serving accounting", "faults         6 injected"}, []string{"-overload", "-p", "4", "-fault-seed", "7"}},
		{[]string{"serving accounting", "emergency ladder walks"}, []string{"-mempressure", "-p", "4", "-budget", "8", "-fault-seed", "1"}},
		{[]string{"1 vproc(s) crashed"}, []string{"-failover", "-p", "4", "-hedge", "30000"}},
	} {
		status, stdout, stderr := gctraceRun(tc.args...)
		if status != 0 || stderr != "" || !strings.Contains(stdout, "runtime totals:") {
			t.Errorf("gctrace %s: status %d, stderr %q, stdout missing the totals:\n%s",
				strings.Join(tc.args, " "), status, stderr, stdout)
		}
		for _, section := range tc.sections {
			if !strings.Contains(stdout, section) {
				t.Errorf("gctrace %s: stdout missing %q:\n%s", strings.Join(tc.args, " "), section, stdout)
			}
		}
	}
}

// elapsedLine is the report's makespan and checksum line.
var elapsedLine = regexp.MustCompile(`elapsed \(virtual\): (\S+) ms   checksum: (\S+)`)

// TestRunsTheBaselinePoint: the gctrace line that names a committed sweep
// point prints that point's makespan (to the report's three decimals) and
// checksum, one point from each committed bench.Point file — so a run here
// and a sweep point are one run, not two that agree by hand.
func TestRunsTheBaselinePoint(t *testing.T) {
	for _, tc := range []struct {
		file string // the committed file, by kind prefix
		key  string // the point's bench.Point.Key
		args string // the gctrace line that names it
	}{
		{"BENCH", "figure 5 dmm local p=1", "-bench dmm -p 1 -scale 0.25"},
		{"SCALE", "smvm amd48 local p=48 scale=0.25", "-bench smvm -machine amd48 -policy local -p 48 -scale 0.25"},
		{"LATENCY", "amd48 local p=48 low-load gap=400000ns clients=600 requests=6", "-latency -p 48"},
		{"OVERLOAD", "amd48 queue p=16 4x-load gap=40000ns clients=300 requests=6 faults=0xfa115afe",
			"-overload -p 16 -gap 40000 -admission queue -fault-seed 0xfa115afe"},
		{"MEMPRESSURE", "amd48 memory p=16 4x-load gap=40000ns clients=300 requests=6 b=24",
			"-mempressure -p 16 -gap 40000 -admission memory -budget 24"},
		{"FAILOVER", "amd48 p=16 r=2 crash=vproc at=1200000ns hedge=30000ns",
			"-failover -p 16 -replicas 2 -crash vproc -hedge 30000"},
	} {
		want := committedPoint(t, tc.file, tc.key)
		args := strings.Fields(tc.args)
		status, stdout, stderr := gctraceRun(args...)
		m := elapsedLine.FindStringSubmatch(stdout)
		if status != 0 || m == nil {
			t.Errorf("gctrace %s: status %d, stderr %q, no elapsed line in:\n%s", tc.args, status, stderr, stdout)
			continue
		}
		if ms, check := fmt.Sprintf("%.3f", want.VirtualMs), fmt.Sprintf("%#x", want.Check); m[1] != ms || m[2] != check {
			t.Errorf("gctrace %s: %s ms, checksum %s; %s's %q holds %s ms (%v), checksum %s",
				tc.args, m[1], m[2], tc.file, tc.key, ms, want.VirtualMs, check)
		}
	}
}

// committedPoint is the point of the repository root's one <kind>_v*.json
// file whose key is key.
func committedPoint(t *testing.T, kind, key string) bench.Point {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", kind+"_v*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("committed %s baseline: %v (%v)", kind, files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Points []bench.Point }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	for _, p := range file.Points {
		if p.Key() == key {
			return p
		}
	}
	t.Fatalf("%s holds no point %q", files[0], key)
	return bench.Point{}
}
