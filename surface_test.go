package manticore

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the functions and methods that no production code path
// reaches and that stay anyway, each with the reason. Keys are qualified the
// way surfaceName spells a declaration — pkg.Func, (pkg.Type).Method,
// (*pkg.Type).Method — so an entry keeps exactly one declaration.
var surfaceAllow = map[string]string{
	// Test oracles: the straight-line references tests compare against.
	"numa.NewReference":                "test oracle: numa's reference machine, held bit-for-bit to Machine by TestFastPathEquivalence",
	"(*numa.Reference).AccessCost":     "test oracle: the reference's memory charge, compared with Machine.AccessCost",
	"(*numa.Reference).StreamCost":     "test oracle: the reference's streaming charge, compared with Machine.StreamCost",
	"(*numa.Reference).CopyStreamCost": "test oracle: the reference's copy charge, compared with Machine.CopyStreamCost",
	"(*numa.Reference).Stats":          "test oracle: the reference's traffic totals, compared with Machine.Stats",
	"(*numa.Reference).Reset":          "test oracle: rewinds the reference machine between equivalence programs",
	"(*numa.Machine).Reset":            "test oracle: rewinds the machine between equivalence programs, in step with its reference",
	"(*numa.Machine).StreamCost":       "test oracle: the machine's half of the StreamCost pair TestFastPathEquivalence drives (production streams go through CopyStreamCost)",
	"workload.QuicksortSeq":            "test oracle: sequential sort the parallel quicksort's result is checked against",
	"workload.ServerSeq":               "test oracle: sequential server fold behind the server/latency checksums",
	"core.RandomCrashPlan":             "test oracle: seeded crash schedules of the crash and failover stress tests",

	// Test observers: read-only views of state that tests assert on.
	"(*core.Channel).Cap":                "test observer: mailbox capacity in the channel tests",
	"(*core.Channel).Crashed":            "test observer: a channel's crash state in the crash tests",
	"(*core.VProc).Crashed":              "test observer: a vproc's crash state in the crash tests",
	"(*core.Task).Lost":                  "test observer: a task's lost-to-crash flag in the crash and failover tests",
	"(*core.VProc).IsProxy":              "test observer: proxy classification in the proxy tests",
	"(*heap.ChunkManager).FreeCount":     "test observer: per-node free-list depth in the chunk-manager tests",
	"(*heap.Chunk).FreeWords":            "test observer: chunk free space in the chunk-manager tests",
	"(*heap.LocalHeap).FreeNurseryWords": "test observer: nursery free space in the local-heap tests",
	"(*heap.LocalHeap).InNursery":        "test observer: address classification in the local-heap tests",
	"(*heap.LocalHeap).InOld":            "test observer: address classification in the local-heap tests",
	"(*heap.Space).Store":                "test observer: raw word write the region-window differential tests drive both twins with",
	"(*heap.Space).Load":                 "test observer: raw word read the region-window and local-heap tests assert on",
	"(*mempage.Table).PerNode":           "test observer: per-node page counts in the placement-policy tests",
	"(*mempage.Table).NodeOf":            "test observer: a page's home node in the placement-policy tests",
	"(*numa.Topology).PackageOfNode":     "test observer: topology shape in the numa tests",
	"(*workload.Hist).N":                 "test observer: histogram sample count in the latency and failover tests",
	"(bench.Figure).SpeedupAt":           "test observer: one point of a speedup figure in the bench tests",
	"(gcbench.kind[P]).accepts":          "test observer: TestCommittedBaselinesAreCurrent asks every kind whether a committed file is its own",

	// The runtime API the facade re-exports (Worker = core.VProc): no harness
	// happens to call these, tests do.
	"(*core.VProc).AllocVectorN":          "public runtime API exercised by tests: the nil-vector allocator of the Alloc* family",
	"(*core.VProc).TryAllocRawN":          "public runtime API exercised by tests: fallible allocation (README, memory pressure)",
	"(*core.VProc).TryPromote":            "public runtime API exercised by tests: fallible promotion (README, memory pressure)",
	"(*core.VProc).ForkJoin":              "public runtime API exercised by tests: the two-closure fork-join form",
	"(*core.VProc).MakeEnv":               "public runtime API exercised by tests: environments for hand-built tasks",
	"(*core.VProc).NewRef":                "public runtime API exercised by tests: mutable references (paper §5)",
	"(*core.VProc).ReadRef":               "public runtime API exercised by tests: mutable references (paper §5)",
	"(*core.VProc).WriteRef":              "public runtime API exercised by tests: mutable references (paper §5)",
	"(*core.VProc).Select":                "public runtime API exercised by tests: CML choice over channels",
	"(*core.FaultPlan).CrashNodeAt":       "public runtime API exercised by tests: node-wide crash in a fault plan",
	"(*core.Channel).Len":                 "public facade (Channel): pending-message count, the diagnostic the channel tests read",
	"(*core.Channel).Owner":               "public facade (Channel): the failure-domain annotation SetOwner wrote",
	"(*core.Task).Done":                   "public facade (Task): completion poll beside Join",
	"(*core.Task).Result":                 "public facade (Task): the produced value beside JoinResult",
	"(core.Env).Len":                      "public facade (Env): capture count of a task environment",
	"(core.Env).Set":                      "public facade (Env): rewrites a capture in place, the counterpart of Get",
	"manticore.MachinePreset":             "public facade exercised by tests: lookup of a machine by name",
	"(*manticore.Runtime).RegisterRecord": "public facade exercised by tests: registration of a mixed-object layout",
	"manticore.Select":                    "public facade exercised by tests: the blocking choice beside SelectThen",
	"manticore.Intel32":                   "public facade: the paper's second machine beside AMD48, which the examples use",
	"manticore.ParsePolicy":               "public facade: page-policy lookup by name for embedding programs",

	// vtime's own test programs are built from these.
	"(*vtime.Proc).Block": "engine primitive of the vtime test programs (span_test, panic_test interaction steps)",
	"(*vtime.Proc).Wake":  "engine primitive of the vtime test programs (span_test, panic_test interaction steps)",
}

// surfacePackage is the part of `go list -json` the audit reads.
type surfacePackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// surfaceList runs `go list -json ./...` in dir (a module root).
func surfaceList(t *testing.T, dir string) []surfacePackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []surfacePackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p surfacePackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// surfaceLoader type-checks the listed packages on demand, which is
// dependency order: importing a listed package checks it first, anything else
// is the standard library and goes to the source importer.
type surfaceLoader struct {
	fset    *token.FileSet
	listed  map[string]surfacePackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	std     types.Importer
	info    *types.Info
}

func (l *surfaceLoader) Import(importPath string) (*types.Package, error) {
	if pkg := l.checked[importPath]; pkg != nil {
		return pkg, nil
	}
	lp, ok := l.listed[importPath]
	if !ok {
		return l.std.Import(importPath)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles { // GoFiles: no tests, build constraints applied
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.checked[importPath], l.files[importPath] = pkg, files
	return pkg, nil
}

// surfaceName spells a declaration the way surfaceAllow keys it. A main
// package goes by its directory, so the two commands' run functions differ.
func surfaceName(fn *types.Func) string {
	qualify := func(p *types.Package) string {
		if p.Name() == "main" {
			return path.Base(p.Path())
		}
		return p.Name()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), qualify) + ")." + fn.Name()
	}
	return qualify(fn.Pkg()) + "." + fn.Name()
}

// declaresAll reports whether the named type declares a method for every
// method of the interface (by name: enough to tell which types a call through
// the interface, or through a type parameter it constrains, can land on).
func declaresAll(named *types.Named, iface *types.Interface) bool {
	have := map[string]bool{}
	for i := 0; i < named.NumMethods(); i++ {
		have[named.Method(i).Name()] = true
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if !have[iface.Method(i).Name()] {
			return false
		}
	}
	return true
}

// TestSurfaceIsReached keeps the entry-point surface honest: every func or
// method declared in a non-test file under internal/, cmd/ or the root must be
// used from some non-test file of the root module, benchmark/ or examples/,
// on a path that starts outside the audited declarations (a main, a package
// initialiser, an example, the benchmark) or at an allowlisted declaration. A
// reference from the function's own body, or from a function that is itself
// unreached, does not count, so a self-recursive helper and the wrapper that
// only it calls are both reported.
//
// References are go/types object identities (types.Info.Uses), so a live
// function does not keep a dead one of the same name alive. Two kinds of call
// leave no use of the concrete method and are added by rule: a String or
// Error method that makes its type a fmt.Stringer or an error is reached
// (fmt calls it), and a use of an interface method — sweepKind's, or Key and
// VirtualEq through the sweepPoint type-parameter constraint — reaches that
// method on every audited type declaring all of the interface's methods.
func TestSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	l := &surfaceLoader{
		fset:    fset,
		listed:  map[string]surfacePackage{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		std:     importer.ForCompiler(fset, "source", nil),
		info:    &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range surfaceList(t, dir) {
			l.listed[p.ImportPath] = p
		}
	}
	for importPath := range l.listed {
		if _, err := l.Import(importPath); err != nil {
			t.Fatal(err)
		}
	}

	// audited: the declarations under audit; every other function (main, init,
	// the benchmark's and the examples') is a root, spelled nil below.
	audited := func(fn *types.Func) bool {
		p := fn.Pkg().Path()
		return fn.Name() != "main" && fn.Name() != "init" &&
			(p == "repro" || strings.HasPrefix(p, "repro/internal/") || strings.HasPrefix(p, "repro/cmd/"))
	}
	declared := map[*types.Func]string{}        // audited declaration -> position
	usedFrom := map[*types.Func][]*types.Func{} // declaration -> enclosing function of each use (nil = a root)
	var namedTypes []*types.Named
	for _, pkg := range l.checked {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, named)
				}
			}
		}
	}
	for _, files := range l.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				var from *types.Func
				fd, isFunc := decl.(*ast.FuncDecl)
				if isFunc {
					if fn := l.info.Defs[fd.Name].(*types.Func); audited(fn) {
						declared[fn] = fset.Position(fd.Pos()).String()
						from = fn
						sig := fn.Type().(*types.Signature)
						stringer := sig.Recv() != nil && (fn.Name() == "String" || fn.Name() == "Error") &&
							sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
							types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
						if stringer {
							usedFrom[fn] = append(usedFrom[fn], nil)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := l.info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					usedFrom[fn] = append(usedFrom[fn], from)
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						return true
					}
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						for _, named := range namedTypes {
							if !declaresAll(named, iface) {
								continue
							}
							for i := 0; i < named.NumMethods(); i++ {
								if m := named.Method(i).Origin(); m.Name() == fn.Name() {
									usedFrom[m] = append(usedFrom[m], from)
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	byName := map[string]*types.Func{}
	for fn := range declared {
		byName[surfaceName(fn)] = fn
	}
	for name, reason := range surfaceAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", name)
		}
		if byName[name] == nil {
			t.Errorf("allowlist entry %s names no declared function: remove it", name)
		}
	}

	// Least fixed point: a declaration is reached when a use of it sits in a
	// root or in a function already reached. Production roots first, so an
	// allowlist entry production code has since started to call is reported
	// as stale; then the allowlist.
	reached := map[*types.Func]bool{nil: true}
	grow := func() {
		for changed := true; changed; {
			changed = false
			for fn := range declared {
				if reached[fn] {
					continue
				}
				for _, from := range usedFrom[fn] {
					if from != fn && reached[from] {
						reached[fn], changed = true, true
						break
					}
				}
			}
		}
	}
	grow()
	for name := range surfaceAllow {
		if fn := byName[name]; fn != nil {
			if reached[fn] {
				t.Errorf("allowlist entry %s is reached by production code: remove it", name)
			}
			reached[fn] = true
		}
	}
	grow()

	var dead []string
	for fn, pos := range declared {
		if !reached[fn] {
			dead = append(dead, surfaceName(fn)+"  ("+pos+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no production path reaches %s: delete it, or allowlist it with a reason", d)
	}
}
