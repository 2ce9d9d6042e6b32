package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gctrace"
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
	"scale": "0.5", "bench": "dmm", "machine": "intel32", "policy": "interleaved", "threads": "1,8",
	"cpuprofile": "unwritten.prof", "memprofile": "unwritten.prof",
}

// modeArgs selects each mode on the command line.
func modeArgs(mode string) []string {
	switch mode {
	case modeCustom:
		return nil
	case modeThroughput:
		return []string{"-baseline", "unwritten.json"}
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
	for name, reads := range flagUses {
		if !strings.Contains(usage, "\n  -"+name) {
			t.Errorf("flagUses has a row for -%s, which the command does not define", name)
		}
		if _, ok := sampleValue[name]; !ok {
			t.Errorf("no sample value for -%s", name)
		}
		for _, m := range reads {
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
	ks := kinds(bench.Options{})
	if len(ks) != len(kindModes) {
		t.Errorf("%d kinds but %d kindModes", len(ks), len(kindModes))
	}
	for _, m := range kindModes {
		if ks[m] == nil {
			t.Errorf("kindModes lists %q, which has no kind", m)
		}
	}
}

// TestForeignFlagsRejected: every (mode, flag) pair the compatibility table
// forbids — a flag the mode does not read, on a print, -baseline or -compare
// run — exits non-zero before measuring anything, naming the flag. This
// covers every combination the old hand-written checks rejected plus the
// ones they silently ignored (-figure -machine, -all -policy, -figure
// -threads, -server -bench).
func TestForeignFlagsRejected(t *testing.T) {
	committed := committedBaselines(t)
	modes := append([]string{modeCustom, modeThroughput}, modeFlags...)
	for _, mode := range modes {
		for name, reads := range flagUses {
			if name == "baseline" || name == "compare" || reads == nil || slices.Contains(reads, mode) {
				continue // they select the mode (covered below), or this mode reads the flag
			}
			expectRejected(t, name, append(modeArgs(mode), flagArgs(name)...))
			if !slices.Contains(kindModes, mode) {
				continue
			}
			// The same flag on the kind's baseline runs.
			expectRejected(t, name, append([]string{"-compare", committed[mode]}, flagArgs(name)...))
			if mode != modeThroughput {
				args := append(modeArgs(mode), "-baseline", "unwritten.json")
				expectRejected(t, name, append(args, flagArgs(name)...))
			}
		}
	}
	// -baseline and -compare themselves: only modes with a kind take
	// -baseline, and -compare takes no mode flag, since its file names the
	// kind.
	for _, mode := range []string{"-figure", "-all", "-server"} {
		expectRejected(t, "baseline", append(modeArgs(mode), "-baseline", "unwritten.json"))
	}
	for _, mode := range modeFlags {
		expectRejected(t, "compare", append(modeArgs(mode), "-compare", committed[modeThroughput]))
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
		{"nope.json", []string{"-compare", "nope.json"}},
		// A scale whose largest object no chunk or fresh nursery holds is
		// rejected before anything is measured: these used to panic inside
		// the simulation (and, before that, exit 2 from bench.Sweep's
		// re-raise).
		{"exceeds chunk size", []string{"-bench", "smvm", "-scale", "64", "-threads", "4"}},
		{"exceeds chunk size", []string{"-figure", "5", "-bench", "smvm", "-scale", "64", "-j", "2"}},
		{"exceeds chunk size", []string{"-all", "-bench", "smvm", "-scale", "64"}},
		{"-bench smvm at -scale 40: an object of 81920 words exceeds chunk size 16384", []string{"-bench", "smvm", "-threads", "2", "-scale", "40"}},
		{"-bench barnes-hut at -scale 9: an object of 18432 words exceeds chunk size 16384", []string{"-bench", "barnes-hut", "-threads", "2", "-scale", "9"}},
		{"-bench dmm at -scale 120: an object of 17280 words exceeds chunk size 16384", []string{"-bench", "dmm", "-threads", "2", "-scale", "120"}},
		// failover's crash needs a second vproc: this used to be point 0's
		// panic inside the harness.
		{"-bench failover needs at least 2 threads; this sweep runs it at p=1", []string{"-bench", "failover", "-threads", "1,2"}},
	} {
		status, stdout, stderr := gcbenchRun(tc.args...)
		if status != 1 || stdout != "" || !strings.Contains(stderr, tc.value) || strings.Count(stderr, "\n") != 1 ||
			strings.Contains(stderr, "panicked") {
			t.Errorf("gcbench %s: status %d, stdout %q, stderr %q; want status 1 and one line containing %q, not a panic",
				strings.Join(tc.args, " "), status, stdout, stderr, tc.value)
		}
	}
	if status, _, _ := gcbenchRun("-no-such-flag"); status != 2 {
		t.Errorf("unknown flag: status %d, want 2", status)
	}
}

// TestMismatchedBaselineFailsBeforeMeasuring: a file that no kind accepts —
// an old version, another workload scale, a key set no kind enumerates — is
// rejected before any point is measured, with each kind's reason on a line
// of its own. With -v every measured point prints a progress line, so a
// stderr holding only the error proves nothing ran.
func TestMismatchedBaselineFailsBeforeMeasuring(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		path string
		want []string // among the kinds' reasons
	}{
		// The latency kind is one matrix: a stw-only version-1 recording
		// is as stale as any other old version.
		{write("latency_v1.json", `{"version": 1, "points": []}`),
			[]string{"version-1 baseline; this run measures the version-2 latency points"}},
		// The version and point type of three kinds, one failover point:
		// too few for the failover kind, foreign to the overload kind.
		{write("one_failover_point.json", `{"version": 3, "points": [{"machine": "amd48", "threads": 16, "replicas": 2, "crash": "none"}]}`),
			[]string{`lacks the failover point "amd48 p=16 r=1 crash=none"`, `holds "amd48 p=16 r=2 crash=none", which is not among the overload points`}},
		{write("bench_scale.json", `{"version": 3, "scale": 0.5, "points": []}`),
			[]string{"records scale 0.5; the virtual-time points are at scale 0.25"}},
		{write("bench_v1.json", `{"version": 1, "scale": 0.25, "points": []}`),
			[]string{"version-1 baseline; this run measures the version-3 virtual-time points"}},
	} {
		status, stdout, stderr := gcbenchRun("-compare", tc.path, "-v", "-j", "1")
		lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
		if status != 1 || stdout != "" || lines[0] != "gcbench: "+tc.path+" is no kind's baseline:" {
			t.Errorf("-compare %s: status %d, stdout %q, stderr %q; want status 1 and no kind's baseline", tc.path, status, stdout, stderr)
			continue
		}
		// Every other line is one kind's reason, not a measured point's
		// progress line.
		if reasons := lines[1:]; len(reasons) != len(kindModes) {
			t.Errorf("-compare %s: %d reasons for %d kinds:\n%s", tc.path, len(reasons), len(kindModes), stderr)
		}
		for _, l := range lines[1:] {
			if !strings.HasPrefix(l, "  "+tc.path) && !strings.HasPrefix(l, "  parse "+tc.path) {
				t.Errorf("-compare %s: %q is no kind's reason", tc.path, l)
			}
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("-compare %s: stderr lacks %q:\n%s", tc.path, want, stderr)
			}
		}
	}
}

// committedBaselines is the repository root's recordings, by the mode of the
// kind the command identifies each as; a file that no kind or more than one
// accepts, or a second file of one kind, fails t.
func committedBaselines(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "*_v*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("committed baselines: %v (%v)", files, err)
	}
	ks := kinds(bench.Options{})
	byMode := map[string]string{}
	for _, f := range files {
		mode, err := identify(ks, f)
		if err != nil {
			t.Error(err)
			continue
		}
		if other := byMode[mode]; other != "" {
			t.Errorf("%s and %s are both current %s baselines", other, f, mode)
		}
		byMode[mode] = f
	}
	return byMode
}

// TestCommittedBaselinesAreCurrent: every recording in the repository root
// is the current baseline of exactly one kind, and every kind has its
// recording — a superseded file (an old version, a retired kind) cannot be
// left behind, and a new kind cannot ship without its gate's file.
func TestCommittedBaselinesAreCurrent(t *testing.T) {
	committed := committedBaselines(t)
	for _, mode := range kindModes {
		if committed[mode] == "" {
			t.Errorf("no committed baseline for %s", mode)
		}
	}
}

// TestCommittedBaselinesRoundTrip: every committed recording decodes as the
// file of the kind that accepts it, with unique point keys; that kind's table
// has a row for every point; and the writer's encoding of the points decodes
// back to the same virtual fields, point by point, so a re-record loses no
// value to the omitted zero fields. Nothing is measured.
func TestCommittedBaselinesRoundTrip(t *testing.T) {
	ks := kinds(bench.Options{})
	for mode, f := range committedBaselines(t) {
		switch k := ks[mode].(type) {
		case kind[bench.Point]:
			roundTrip(t, k, f)
		case kind[gctrace.EventsPoint]:
			roundTrip(t, k, f)
		default:
			t.Errorf("%s: no round trip for %T", f, k)
		}
	}
}

// roundTrip is TestCommittedBaselinesRoundTrip for one file of kind k.
func roundTrip[P sweepPoint[P]](t *testing.T, k kind[P], path string) {
	t.Helper()
	want, err := k.read(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range want.Points {
		if seen[p.Key()] {
			t.Errorf("%s: point %q recorded twice", path, p.Key())
		}
		seen[p.Key()] = true
	}
	if k.render != nil {
		table := k.render(want.Points)
		for _, p := range want.Points {
			if !strings.Contains(table, p.Key()) {
				t.Errorf("%s: the %s table has no row for %q", path, k.label, p.Key())
			}
		}
	}
	data, err := k.encode(want.Points)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(rewritten, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := k.read(rewritten)
	if err != nil {
		t.Fatalf("%s re-encoded: %v", path, err)
	}
	for i, p := range want.Points {
		if !got.Points[i].VirtualEq(p) {
			t.Errorf("%s: %q changed in a re-encode:\n  file %+v\n  got  %+v", path, p.Key(), p, got.Points[i])
		}
	}
}

// TestEventsMatrixMatchesCommitted is the event-order gate in tier-1: every
// configuration of the matrix prints, event for event and then its summary,
// what it printed when the committed EVENTS_v*.json was recorded. On a
// mismatch the message names the configuration and the window of events
// where the run first departs, with its virtual instants and vprocs.
func TestEventsMatrixMatchesCommitted(t *testing.T) {
	path := committedBaselines(t)["-events"]
	status, stdout, stderr := gcbenchRun("-compare", path)
	if status != 0 || !strings.Contains(stdout, "event-digest points match") {
		t.Fatalf("-compare %s: status %d, stdout %q\n%s", path, status, stdout, stderr)
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
	status, stdout, stderr := gcbenchRun("-compare", path)
	if status != 0 || !strings.Contains(stdout, "all 10 failover points match") {
		t.Fatalf("-compare: status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	committed, err := os.ReadFile(committedBaselines(t)["-failover"])
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tampered, bytes.Replace(committed, []byte(`"good_slo": `), []byte(`"good_slo": 1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	status, _, stderr = gcbenchRun("-compare", tampered)
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
