package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// gcbenchRun runs the command in-process and returns its exit status and
// output streams.
func gcbenchRun(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// sampleValue is a well-formed value for each table flag, so a rejection in
// TestForeignFlagsRejected can only come from the compatibility table.
var sampleValue = map[string]string{
	"j": "1", "par": "1", "v": "", "baseline": "unwritten.json", "compare": "unread.json",
	"gc": "both", "scale": "0.5", "bench": "dmm", "machine": "intel32", "policy": "interleaved",
	"threads": "1,8", "loads": "80000", "admission": "queue", "fault-seed": "7",
	"budgets": "16", "machines": "amd48", "crash": "vproc", "replicas": "2",
	"cpuprofile": "unwritten.prof", "memprofile": "unwritten.prof",
}

// modeArgs selects each mode on the command line.
func modeArgs(mode string) []string {
	switch mode {
	case modeCustom:
		return nil
	case modeThroughput:
		return []string{"-compare", "unread.json"}
	case "-figure":
		return []string{"-figure", "5"}
	}
	return []string{mode}
}

// flagArgs sets one flag to its sample value.
func flagArgs(name string) []string {
	if v := sampleValue[name]; v != "" {
		return []string{"-" + name, v}
	}
	return []string{"-" + name}
}

// TestCompatibilityTableCoversEveryFlag: every flag the command defines is
// either a mode flag or has a row in flagUses, every row names real modes,
// and kindModes is exactly the kind table's key set — so no flag can be
// added without deciding where it applies.
func TestCompatibilityTableCoversEveryFlag(t *testing.T) {
	modes := append([]string{modeCustom, modeThroughput}, modeFlags...)
	_, _, usage := gcbenchRun("-h")
	for name, u := range flagUses {
		if !strings.Contains(usage, "\n  -"+name) {
			t.Errorf("flagUses has a row for -%s, which the command does not define", name)
		}
		if _, ok := sampleValue[name]; !ok {
			t.Errorf("no sample value for -%s", name)
		}
		for _, m := range u.modes {
			if !slices.Contains(modes, m) {
				t.Errorf("-%s lists unknown mode %q", name, m)
			}
		}
	}
	for _, line := range strings.Split(usage, "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		name := strings.Fields(strings.TrimPrefix(line, "  -"))[0]
		if _, ok := flagUses[name]; !ok && !slices.Contains(modeFlags, "-"+name) {
			t.Errorf("-%s is neither a mode flag nor in flagUses", name)
		}
	}
	kinds := sweeps{}.kinds()
	if len(kinds) != len(kindModes) {
		t.Errorf("%d kinds but %d kindModes", len(kinds), len(kindModes))
	}
	for _, m := range kindModes {
		if kinds[m] == nil {
			t.Errorf("kindModes lists %q, which has no kind", m)
		}
	}
}

// TestForeignFlagsRejected: every (mode, flag) pair the compatibility table
// forbids — a flag the mode does not read, or a sweep knob on a baseline run
// — exits non-zero before measuring anything, naming the flag. This covers
// every combination the old hand-written checks rejected plus the ones they
// silently ignored (-figure -machine, -all -policy, -figure -threads,
// -server -bench).
func TestForeignFlagsRejected(t *testing.T) {
	modes := append([]string{modeCustom, modeThroughput}, modeFlags...)
	for _, mode := range modes {
		for name, u := range flagUses {
			if name == "baseline" || name == "compare" {
				continue // they select the mode; covered below
			}
			foreign := u.modes != nil && !slices.Contains(u.modes, mode)
			if foreign {
				expectRejected(t, name, append(modeArgs(mode), flagArgs(name)...))
			}
			// The same flag on a baseline run of a mode that has one.
			if slices.Contains(kindModes, mode) && mode != modeThroughput && (foreign || !u.baseline) {
				for _, action := range [][]string{{"-compare", "unread.json"}, {"-baseline", "unwritten.json"}} {
					args := append(modeArgs(mode), action...)
					expectRejected(t, name, append(args, flagArgs(name)...))
				}
			}
			if mode == modeThroughput && !foreign && !u.baseline {
				t.Errorf("-%s is a sweep knob the throughput baseline reads; no such flag should exist", name)
			}
		}
	}
	// -baseline/-compare themselves: only modes with a kind take them.
	for _, mode := range []string{"-figure", "-all", "-server"} {
		expectRejected(t, "compare", append(modeArgs(mode), "-compare", "unread.json"))
		expectRejected(t, "baseline", append(modeArgs(mode), "-baseline", "unwritten.json"))
	}
	expectRejected(t, "baseline", []string{"-baseline", "unwritten.json", "-compare", "unread.json"})
	if _, err := os.Stat("unwritten.json"); err == nil {
		t.Error("a rejected -baseline run wrote its file")
	}
}

// expectRejected runs gcbench and requires exit status 1 with the flag named
// in the message and nothing measured (no stdout).
func expectRejected(t *testing.T, name string, args []string) {
	t.Helper()
	status, stdout, stderr := gcbenchRun(args...)
	if status != 1 || !strings.Contains(stderr, "-"+name) || stdout != "" {
		t.Errorf("gcbench %s: status %d, stdout %q, stderr %q; want status 1 naming -%s",
			strings.Join(args, " "), status, stdout, stderr, name)
	}
}

// TestModeFlagsMutuallyExclusive: any two mode flags together are rejected,
// including the -figure/-all/-server combinations that used to run one of
// them and silently drop the rest.
func TestModeFlagsMutuallyExclusive(t *testing.T) {
	for i, a := range modeFlags {
		for _, b := range modeFlags[i+1:] {
			args := append(modeArgs(a), modeArgs(b)...)
			status, stdout, stderr := gcbenchRun(args...)
			if status != 1 || stdout != "" || !strings.Contains(stderr, a+" and "+b) {
				t.Errorf("gcbench %s: status %d, stdout %q, stderr %q", strings.Join(args, " "), status, stdout, stderr)
			}
		}
	}
	if status, _, stderr := gcbenchRun("-all", "-figure", "5", "-server"); status != 1 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("-all -figure 5 -server: status %d, stderr %q", status, stderr)
	}
}

// TestBadValuesRejected: malformed or out-of-range flag values fail with the
// flag named, whether or not the selected mode reads the flag.
func TestBadValuesRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"scale", []string{"-scale", "0"}},
		{"scale", []string{"-scale", "-1"}},
		{"scale", []string{"-scale", "+Inf"}},
		{"j", []string{"-j", "0"}},
		{"par", []string{"-par", "0"}},
		{"figure", []string{"-figure", "3"}},
		{"figure", []string{"-figure", "8"}},
		{"gc", []string{"-latency", "-gc", "nope"}},
		{"replicas", []string{"-failover", "-replicas", "0"}},
		{"replicas", []string{"-failover", "-replicas", "x"}},
		{"budgets", []string{"-mempressure", "-budgets", "-1"}},
		{"budgets", []string{"-mempressure", "-budgets", "3"}},
		{"loads", []string{"-overload", "-loads", "1"}},
		{"loads", []string{"-overload", "-loads", "x"}},
		{"threads", []string{"-threads", "0"}},
		{"threads", []string{"-threads", "49"}},
		{"threads", []string{"-threads", "x"}},
	} {
		expectRejected(t, tc.name, tc.args)
	}
	// Names resolved by other packages: their errors name the bad value.
	for _, tc := range []struct {
		value string
		args  []string
	}{
		{"nope", []string{"-bench", "nope"}},
		{"nope", []string{"-machine", "nope"}},
		{"nope", []string{"-policy", "nope"}},
		{"nope", []string{"-failover", "-crash", "nope"}},
		{"nope", []string{"-rackscale", "-machines", "nope"}},
		{"nope", []string{"-overload", "-admission", "nope"}},
		{"board", []string{"-failover", "-crash", "board", "-replicas", "1"}},
		// A simulation that panics (smvm scaled past what a chunk holds) is
		// that sweep's error, not a Go trace: these used to exit 2 from
		// bench.Sweep's re-raise.
		{"exceeds chunk size", []string{"-bench", "smvm", "-scale", "64", "-threads", "4"}},
		{"exceeds chunk size", []string{"-figure", "5", "-bench", "smvm", "-scale", "64", "-j", "2"}},
		{"exceeds chunk size", []string{"-all", "-bench", "smvm", "-scale", "64"}},
	} {
		status, stdout, stderr := gcbenchRun(tc.args...)
		if status != 1 || stdout != "" || !strings.Contains(stderr, tc.value) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("gcbench %s: status %d, stdout %q, stderr %q; want status 1 and one line containing %q",
				strings.Join(tc.args, " "), status, stdout, stderr, tc.value)
		}
	}
	if status, _, _ := gcbenchRun("-no-such-flag"); status != 2 {
		t.Errorf("unknown flag: status %d, want 2", status)
	}
}

// TestMismatchedBaselineFailsBeforeMeasuring: a baseline file of the wrong
// kind, version or workload scale is rejected before any point is measured. With
// -v every measured point prints a progress line, so a stderr holding only
// the error proves nothing ran.
func TestMismatchedBaselineFailsBeforeMeasuring(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldLatency := write("latency_v1.json", `{"version": 1, "points": []}`)
	otherKind := write("failover_as_overload.json", `{"version": 1, "points": [{"replicas": 2}]}`)
	wrongScale := write("bench_scale.json", `{"version": 3, "scale": 0.5, "points": []}`)
	oldBench := write("bench_v1.json", `{"version": 1, "scale": 0.25, "points": []}`)

	for _, tc := range []struct {
		args []string
		want string
	}{
		// The latency kind is one matrix: a stw-only version-1 recording
		// is as stale as any other old version.
		{[]string{"-latency", "-compare", oldLatency, "-v", "-j", "1"}, "version-1"},
		// Same version, another kind's points.
		{[]string{"-overload", "-compare", otherKind, "-v", "-j", "1"}, `unknown field "replicas"`},
		{[]string{"-compare", wrongScale, "-v", "-j", "1"}, "scale 0.5"},
		{[]string{"-compare", oldBench, "-v", "-j", "1"}, "version-1"},
	} {
		status, stdout, stderr := gcbenchRun(tc.args...)
		if status != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("gcbench %s: status %d, stdout %q, stderr %q; want status 1 mentioning %q",
				strings.Join(tc.args, " "), status, stdout, stderr, tc.want)
		}
		if n := strings.Count(stderr, "\n"); n != 1 {
			t.Errorf("gcbench %s: %d stderr lines, want only the error (points were measured?):\n%s",
				strings.Join(tc.args, " "), n, stderr)
		}
	}
}

// TestCommittedBaselinesAreCurrent: every recording in the repository root
// is the current baseline of exactly one kind, and every kind has its
// recording — a superseded file (an old version, a retired kind) cannot be
// left behind, and a new kind cannot ship without its gate's file.
func TestCommittedBaselinesAreCurrent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*_v*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw := sweeps{rackscale: bench.DefaultScaleSweep()}
	recorded := map[string]string{}
	for _, f := range files {
		var why []string
		for mode, k := range sw.kinds() {
			err := k.accepts(f)
			if err != nil {
				why = append(why, err.Error())
				continue
			}
			if other, dup := recorded[mode]; dup {
				t.Errorf("%s and %s are both current %s baselines", other, f, mode)
			}
			recorded[mode] = f
		}
		if len(why) != len(kindModes)-1 {
			t.Errorf("%s is the current baseline of %d kinds, want exactly 1:\n  %s",
				f, len(kindModes)-len(why), strings.Join(why, "\n  "))
		}
	}
	for _, mode := range kindModes {
		if recorded[mode] == "" {
			t.Errorf("no committed baseline for %s", mode)
		}
	}
}

// TestEventsMatrixMatchesCommitted is the event-order gate in tier-1: every
// configuration of the matrix prints, event for event and then its summary,
// what it printed when EVENTS_v1.json was recorded. On a mismatch the
// message names the configuration and the window of events where the run
// first departs, with its virtual instants and vprocs.
func TestEventsMatrixMatchesCommitted(t *testing.T) {
	status, stdout, stderr := gcbenchRun("-events", "-compare", filepath.Join("..", "..", "EVENTS_v1.json"))
	if status != 0 || !strings.Contains(stdout, "event-digest points match") {
		t.Fatalf("-events -compare EVENTS_v1.json: status %d, stdout %q\n%s", status, stdout, stderr)
	}
}

// TestBaselineRoundTrip: a kind's write and compare agree — a freshly written
// baseline compares clean (at a different -par), and a tampered copy of the
// committed file reports exactly the drifted point. The failover sweep is
// the cheapest kind to measure in full.
func TestBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the failover sweep three times")
	}
	path := filepath.Join(t.TempDir(), "failover.json")
	if status, _, stderr := gcbenchRun("-failover", "-baseline", path, "-par", "2"); status != 0 {
		t.Fatalf("-baseline: status %d, stderr %q", status, stderr)
	}
	status, stdout, stderr := gcbenchRun("-failover", "-compare", path)
	if status != 0 || !strings.Contains(stdout, "all 10 failover points match") {
		t.Fatalf("-compare: status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "FAILOVER_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tampered, bytes.Replace(committed, []byte(`"good_slo": `), []byte(`"good_slo": 1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	status, _, stderr = gcbenchRun("-failover", "-compare", tampered)
	if status != 1 || !strings.Contains(stderr, "1 failover point(s) drifted") {
		t.Errorf("tampered -compare: status %d, stderr %q", status, stderr)
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile leave a profile each
// behind a run that otherwise prints what it always prints.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	args := []string{"-bench", "dmm", "-threads", "1,4", "-scale", "0.05", "-j", "1"}
	_, want, _ := gcbenchRun(args...)
	status, stdout, stderr := gcbenchRun(append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if status != 0 || stdout != want {
		t.Fatalf("profiled run: status %d, stderr %q, stdout %q; want the unprofiled run's %q", status, stderr, stdout, want)
	}
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(name), err)
		}
	}
	if status, _, stderr := gcbenchRun(append(args, "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof"))...); status != 1 || !strings.Contains(stderr, "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: status %d, stderr %q; want status 1 naming the flag", status, stderr)
	}
}
