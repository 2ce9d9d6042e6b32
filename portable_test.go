package manticore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// portableMath is what the simulation packages may use of package math:
// functions whose result is the same on every GOARCH — correctly rounded
// (Sqrt), exact (Abs, Min, Max, the bit conversions) — and constants. A
// library function such as Sin or Exp is computed differently per
// architecture (assembly on some, fused multiply-adds on others), so a
// virtual result that depends on one is not portable.
var portableMath = map[string]bool{
	"Sqrt": true, "Abs": true, "Min": true, "Max": true, "Pi": true,
	"Float64bits": true, "Float64frombits": true, "Float32bits": true, "Float32frombits": true,
}

// mathLimit matches the integer limits (MaxInt, MinInt64, MaxUint32, …).
var mathLimit = regexp.MustCompile(`^(Max|Min)(Int|Uint)(8|16|32|64)?$`)

// mathExceptions names the functions allowed more of package math than
// portableMath, keyed pkg.Func, each with what it may use besides.
// barnes-hut's body generator samples the Plummer profile with Sin, Cos and
// Pow, so its input bodies are architecture-dependent until ROADMAP item 8
// replaces them; that change deletes this entry.
var mathExceptions = map[string][]string{
	"workload.plummer": {"Sin", "Cos", "Pow"},
}

// TestSimulationMathIsPortable is the second of ROADMAP item 8's checks (the
// first is scripts/fma-check.sh): the non-test files of the packages that
// compute virtual results use nothing of package math beyond portableMath,
// the integer limits and mathExceptions, and every exception is still used.
func TestSimulationMathIsPortable(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, pkg := range []string{"workload", "core", "numa", "heap", "vtime"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in internal/%s (%v)", pkg, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math" {
					local = "math"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			for _, decl := range f.Decls {
				fn := pkg + " (package level)"
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = pkg + "." + d.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != local {
						return true
					}
					switch name := sel.Sel.Name; {
					case portableMath[name] || mathLimit.MatchString(name):
					case slices.Contains(mathExceptions[fn], name):
						used[fn] = true
					default:
						t.Errorf("%s: math.%s in %s is not portable across GOARCH (allowed: portableMath, the integer limits)", fset.Position(sel.Pos()), name, fn)
					}
					return true
				})
			}
		}
	}
	for fn := range mathExceptions {
		if !used[fn] {
			t.Errorf("mathExceptions names %s, which no longer uses what it allows: delete the entry", fn)
		}
	}
}
