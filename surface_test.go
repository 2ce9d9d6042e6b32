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
// (*pkg.Type).Method — so an entry keeps exactly one declaration. A reason
// that starts with "public " marks public API, kept for programs outside this
// module, whose only callers here may be its own package's tests; any other
// entry that only its own package's tests use belongs in a _test.go file.
var surfaceAllow = map[string]string{
	// Test hooks that other packages' tests use, so they cannot move into a
	// _test.go file of their own package.
	"core.RandomCrashPlan":           "test hook: seeded crash schedules of the core crash tests and the workload failover tests",
	"workload.DefaultLatencyOptions": "test hook: the latency harness's default shape at a scale, run by the core determinism tests and the workload latency tests",

	// The runtime API the facade re-exports (Worker = core.VProc): no harness
	// happens to call these, tests do.
	"(*core.VProc).AllocVectorN":          "public runtime API exercised by tests: the nil-vector allocator of the Alloc* family",
	"(*core.VProc).NewProxy":              "public runtime API exercised by tests: the paper's object proxy (§3.1); Send builds its proxies through the shared body",
	"(*core.VProc).ProxyDeref":            "public runtime API exercised by tests: the proxy's dereference (§3.1); receives consume proxies through the shared body",
	"(*core.VProc).TryAllocRawN":          "public runtime API exercised by tests: fallible allocation (README, memory pressure)",
	"(*core.VProc).TryPromote":            "public runtime API exercised by tests: fallible promotion (README, memory pressure)",
	"(*core.VProc).ForkJoin":              "public runtime API exercised by tests: the two-closure fork-join form",
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
}

// surfacePackage is the part of `go list -json` the audit reads.
type surfacePackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
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
	files, err := l.parse(lp.Dir, lp.GoFiles) // GoFiles: no tests, build constraints applied
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.checked[importPath], l.files[importPath] = pkg, files
	return pkg, nil
}

// parse parses the named files of a package directory.
func (l *surfaceLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// testUses type-checks every listed package's _test.go files and returns, for
// each function they use, the import paths of the packages whose tests do so.
// Internal test files are checked together with their package's files and
// external ones against its production build, so a function is keyed by its
// declaration's position: the one identity both checks of a package share.
func (l *surfaceLoader) testUses() (map[token.Pos][]string, error) {
	uses := map[token.Pos][]string{}
	for importPath, lp := range l.listed {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		tests, err := l.parse(lp.Dir, lp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		if len(tests) > 0 {
			files := append(append([]*ast.File(nil), l.files[importPath]...), tests...)
			if _, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, info); err != nil {
				return nil, err
			}
		}
		xtests, err := l.parse(lp.Dir, lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		if len(xtests) > 0 {
			if _, err := (&types.Config{Importer: l}).Check(importPath+"_test", l.fset, xtests, info); err != nil {
				return nil, err
			}
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok && strings.HasSuffix(l.fset.Position(id.Pos()).Filename, "_test.go") {
				at := fn.Origin().Pos()
				uses[at] = append(uses[at], importPath)
			}
		}
	}
	return uses, nil
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
//
// An allowlisted test hook must be used by some other package's tests or by
// a non-test file: one that only its own package's tests use fails with
// "move it into a _test.go file". Public API entries are exempt, since
// their callers live outside the module.
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

	// A test hook that only its own package's tests use — no other
	// package's tests, no production file — can live in a _test.go file.
	testUses, err := l.testUses()
	if err != nil {
		t.Fatal(err)
	}
	for name, reason := range surfaceAllow {
		fn := byName[name]
		if fn == nil || strings.HasPrefix(reason, "public ") {
			continue
		}
		ownOnly := len(testUses[fn.Pos()]) > 0
		for _, p := range testUses[fn.Pos()] {
			ownOnly = ownOnly && p == fn.Pkg().Path()
		}
		for _, from := range usedFrom[fn] {
			ownOnly = ownOnly && from == fn
		}
		if ownOnly {
			t.Errorf("allowlist entry %s is used only by its own package's tests: move it into a _test.go file", name)
		}
	}

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
