package manticore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the functions and methods that no production code path
// reaches and that stay anyway, each with the reason. Names are matched the
// way the audit counts references: by identifier, across packages.
var surfaceAllow = map[string]string{
	// Test oracles: the straight-line references tests compare against.
	"NewReference":    "test oracle: numa's reference machine, held bit-for-bit to Machine by TestFastPathEquivalence",
	"Reset":           "test oracle: rewinds the numa machine and its reference between equivalence programs",
	"QuicksortSeq":    "test oracle: sequential sort the parallel quicksort's result is checked against",
	"ServerSeq":       "test oracle: sequential server fold behind the server/latency checksums",
	"RandomCrashPlan": "test oracle: seeded crash schedules of the crash and failover stress tests",

	// Test observers: read-only views of state that tests assert on.
	"Cap":              "test observer: mailbox capacity in the channel tests",
	"Crashed":          "test observer: crash state of a vproc / channel in the crash tests",
	"Lost":             "test observer: a task's lost-to-crash flag in the crash and failover tests",
	"IsProxy":          "test observer: proxy classification in the proxy tests",
	"PendingProxies":   "test observer: channel proxy backlog in the channel tests",
	"FreeCount":        "test observer: per-node free-list depth in the chunk-manager tests",
	"FreeWords":        "test observer: chunk free space in the chunk-manager tests",
	"FreeNurseryWords": "test observer: nursery free space in the local-heap tests",
	"InNursery":        "test observer: address classification in the local-heap tests",
	"InOld":            "test observer: address classification in the local-heap tests",
	"Store":            "test observer: raw word write the region-window differential tests drive both twins with",
	"PerNode":          "test observer: per-node page counts in the placement-policy tests",
	"PackageOfNode":    "test observer: topology shape in the numa tests",
	"N":                "test observer: histogram sample count in the latency and failover tests",
	"SpeedupAt":        "test observer: one point of a speedup figure in the bench tests",

	// The runtime API the facade re-exports (Worker = core.VProc): no harness
	// happens to call these, tests do.
	"AllocVectorN":   "public runtime API exercised by tests: the nil-vector allocator of the Alloc* family",
	"TryAllocRawN":   "public runtime API exercised by tests: fallible allocation (README, memory pressure)",
	"TryPromote":     "public runtime API exercised by tests: fallible promotion (README, memory pressure)",
	"ForkJoin":       "public runtime API exercised by tests: the two-closure fork-join form",
	"MakeEnv":        "public runtime API exercised by tests: environments for hand-built tasks",
	"NewRef":         "public runtime API exercised by tests: mutable references (paper §5)",
	"ReadRef":        "public runtime API exercised by tests: mutable references (paper §5)",
	"WriteRef":       "public runtime API exercised by tests: mutable references (paper §5)",
	"Select":         "public runtime API exercised by tests: CML choice over channels",
	"CrashNodeAt":    "public runtime API exercised by tests: node-wide crash in a fault plan",
	"MachinePreset":  "public runtime API exercised by tests: facade lookup of a machine by name",
	"RegisterRecord": "public runtime API exercised by tests: facade registration of a mixed-object layout",

	// vtime's own test programs are built from these.
	"Block": "engine primitive of the vtime test programs (span_test, panic_test interaction steps)",
	"Wake":  "engine primitive of the vtime test programs (span_test, panic_test interaction steps)",
}

// TestSurfaceIsReached keeps the entry-point surface honest: every func or
// method declared in a non-test file under internal/, cmd/ or the root must be
// named from some non-test file of the root module, benchmark/ or examples/,
// on a path that starts outside the audited declarations (a main, a package
// initialiser, an example, the benchmark) or at an allowlisted name. A
// reference from the function's own body, or from a function that is itself
// unreached, does not count, so a self-recursive helper and the wrapper that
// only it calls are both reported. References are by name (go/parser only, no
// type information), so a shared name keeps every declaration of it alive:
// the test under-reports, never over-reports.
func TestSurfaceIsReached(t *testing.T) {
	declared := map[string][]string{} // audited name -> declaration sites
	uses := map[string][]string{}     // name -> enclosing function of each use ("" = package level)
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		audited := !strings.Contains(slash, "/") ||
			strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "cmd/")
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			from := ""
			if isFunc {
				name := fn.Name.Name
				if audited && name != "main" && name != "init" {
					declared[name] = append(declared[name], fset.Position(fn.Pos()).String())
					from = name
				}
			}
			record := func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], from)
				}
				return true
			}
			if !isFunc {
				ast.Inspect(decl, record)
				continue
			}
			// Not fn.Name: a declaration is not a reference to itself.
			if fn.Recv != nil {
				ast.Inspect(fn.Recv, record)
			}
			ast.Inspect(fn.Type, record)
			if fn.Body != nil {
				ast.Inspect(fn.Body, record)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, reason := range surfaceAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", name)
		}
		if _, ok := declared[name]; !ok {
			t.Errorf("allowlist entry %s names no declared function: remove it", name)
		}
	}

	// Least fixed point: a name is reached when a use of it sits at package
	// level, in a function outside the audit, or in a function already
	// reached. Production roots first, so an allowlist entry production code
	// has since started to call is reported as stale; then the allowlist.
	reached := map[string]bool{"": true}
	grow := func() {
		for changed := true; changed; {
			changed = false
			for name := range declared {
				if reached[name] {
					continue
				}
				for _, from := range uses[name] {
					if from != name && reached[from] {
						reached[name], changed = true, true
						break
					}
				}
			}
		}
	}
	grow()
	for name := range surfaceAllow {
		if reached[name] {
			t.Errorf("allowlist entry %s is reached by production code: remove it", name)
		}
		reached[name] = true
	}
	grow()

	var dead []string
	for name, sites := range declared {
		if !reached[name] {
			dead = append(dead, name+"  ("+strings.Join(sites, ", ")+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no production path reaches %s: delete it, or allowlist it with a reason", d)
	}
}
