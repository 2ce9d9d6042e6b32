package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

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
	if status != 1 || stdout != "" || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
		t.Errorf("gctrace %s: status %d, stdout %q, stderr %q; want status 1 and one line containing %q",
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
		{"-par", []string{"-par", "0"}},
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
		{"-bench failover needs -p >= 2, got 1", []string{"-bench", "failover", "-p", "1"}}, // used to panic inside the harness
		{"nope", []string{"-bench", "nope"}},
		{"nope", []string{"-machine", "nope"}},
		{"nope", []string{"-policy", "nope"}},
		{"nope", []string{"-overload", "-admission", "nope"}},
		{"nope", []string{"-failover", "-crash", "nope"}},
		// Not a flag value but the same contract: a simulation that panics
		// (smvm scaled past what a chunk holds) is one line and exit 1, where
		// it used to be a Go trace and exit 2.
		{"the simulation panicked: core: object of 131072 words exceeds chunk size", []string{"-bench", "smvm", "-scale", "64", "-p", "4"}},
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
		// Two 16 K-word chunks, committed to their second (1,024-word) and
		// first (256-word) steps.
		{[]string{"benchmark dmm on amd48", "global chunks committed 1280 of 32768 words (3.9 %)"},
			[]string{"-bench", "dmm", "-p", "2", "-scale", "0.1", "-engine", "-spans"}},
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
