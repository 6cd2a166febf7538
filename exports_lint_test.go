package ntvsim

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

// keptExports names the exported functions under internal/ that no
// non-test file calls and that stay anyway, each with its reason. An
// entry whose name gains a production caller, or whose function is
// deleted, is stale and fails the lint too.
var keptExports = map[string]string{
	"ssta.Law.PathCDF":                  "ROADMAP items 2-5 read the law's path, lane and chip CDFs",
	"ssta.Law.LaneCDF":                  "ROADMAP items 2-5 read the law's path, lane and chip CDFs",
	"ssta.Law.ChipCDF":                  "ROADMAP items 2-5 read the law's path, lane and chip CDFs",
	"ssta.Law.LaneQuantile":             "ROADMAP items 2-5 read the law's lane quantile",
	"stats.QuantileCI":                  "ROADMAP items 2 and 5 hold closed forms to its order-statistic CI",
	"device.Params.DelaySensitivityVth": "ROADMAP item 3's gate-level tail oracle takes its shift from it",
	"stats.QuantileSorted":              "reference that tests in other packages compare the selecting quantiles against",
	"stats.KSStatistic":                 "reference that tests in other packages compare distributions with",
	"stats.KSCritical":                  "reference that tests in other packages compare distributions with",
	"jobs.NewManager":                   "e2ebench/verify_test.go builds a manager with it",
	"jobs.Manager.SetBackoff":           "test hook: retry tests shorten the backoff",
	"faults.Injector.Fired":             "test hook: fault tests count the faults that fired",
	"soda.Builder.SLoad":                "the SLD opcode's builder method",
	"experiments.Fig4Series.Drop":       "read by the root benchmarks (bench_test.go)",
}

// TestExportsHaveProductionCallers fails on an exported function, or a
// method on an exported type, declared under internal/ whose name
// appears in no non-test Go file of the repository (e2ebench/, cmd/ and
// examples/ included) outside its own declaration. Such a function is a
// path only tests use: delete it, move it into the tests that read it,
// or give it an entry in keptExports. The match is by bare name, so a
// dead function that shares its name with a live one goes unreported;
// a live one is never reported.
func TestExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	uses := map[string]int{}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "."
				if fn.Recv != nil {
					recv := receiverName(fn.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					key += recv + "."
				}
				own[fn.Name] = true
				decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/ — walk broken?")
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		_, kept := keptExports[d.key]
		switch {
		case uses[d.name] == 0 && !kept:
			dead = append(dead, d.key+" ("+d.pos+")")
		case uses[d.name] > 0 && kept:
			t.Errorf("keptExports entry %s is stale: a non-test file now names it", d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
	for key := range keptExports {
		if !declared[key] {
			t.Errorf("keptExports entry %s is stale: no such exported function under internal/", key)
		}
	}
}

// receiverName returns the type name of a method receiver, stripping
// the pointer and any type parameters.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
