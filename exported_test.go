package ftqc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedExported are the exported package-level names under internal/
// that no non-test file uses, each with why it stays. An entry goes when
// its name gains a caller or is deleted; the test fails on a stale one.
var unusedExported = map[string]string{
	"ft.IdealDecode":            "end-of-experiment referee the EC tests and root benchmarks call",
	"ft.LogicalH":               "logical Hadamard (Eq. 11), driven only by the root benchmarks",
	"ft.LogicalS":               "logical phase gate (section 4.1), driven only by the root benchmarks",
	"ft.NewGenericEC":           "EC gadget for any stabilizer code, run by the generic-EC tests and benchmarks",
	"ft.PrepZeroCircuit":        "Fig. 3 encoder with a |0> input, checked by the preparation tests",
	"ft.RunEC":                  "one scalar recovery, the reference the batch-engine tests compare against",
	"ft.ToffoliGadgetFidelity":  "E16's Toffoli gadget fidelity, checked in tests and benchmarks",
	"code.FiveQubit":            "[[5,1,3]] code of section 4.2, run through the generic-EC tests",
	"code.Shor9":                "Shor's [[9,1,3]] code, a CSS construction check in the code tests",
	"classical.Repetition":      "[n,1,n] repetition code the classical tests pin",
	"frame.New":                 "scalar frame simulator the gadget and equivalence tests build directly",
	"frame.NewLockstepSampler":  "per-lane reference sampler of the batch-versus-scalar equivalence tests",
	"group.S":                   "symmetric group, the solvability reference of the group tests",
	"surface.LocationsPerRound": "fault-location count the fault-enumeration tests check",
	"tableau.SameState":         "state equality the frame and tableau tests use",
}

// TestExportedNamesHaveCallers is the exported-name rule: every exported
// function, type, variable and constant declared at package level under
// internal/ is used by a non-test file of the module — through a
// selector from another package, or by name inside its own — or is
// listed in unusedExported with a reason.
func TestExportedNamesHaveCallers(t *testing.T) {
	declared := map[string]token.Position{} // "pkg.Name" for internal packages
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := filepath.Base(dir)
		internal := strings.HasPrefix(dir, "internal/")
		names := map[*ast.Ident]bool{} // identifiers that are not uses: declarations and selected fields
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name] = true
				if internal && decl.Recv == nil && decl.Name.IsExported() {
					declared[pkg+"."+decl.Name.Name] = fset.Position(decl.Pos())
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var idents []*ast.Ident
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						idents = []*ast.Ident{spec.Name}
					case *ast.ValueSpec:
						idents = spec.Names
					}
					for _, id := range idents {
						names[id] = true
						if internal && id.IsExported() {
							declared[pkg+"."+id.Name] = fset.Position(id.Pos())
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name → internal package name
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rest, ok := strings.CutPrefix(p, "ftqc/internal/"); ok {
				local := filepath.Base(rest)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = filepath.Base(rest)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				names[n.Sel] = true // a field or method name is no use of a package-level one
			case *ast.Ident:
				if internal && !names[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, pos := range declared {
		_, listed := unusedExported[name]
		switch {
		case !used[name] && !listed:
			unused = append(unused, pos.String()+": "+name)
		case used[name] && listed:
			t.Errorf("%s has a caller now; drop it from unusedExported", name)
		}
	}
	for name := range unusedExported {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s is no longer declared; drop it from unusedExported", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file uses it: give it a caller, unexport it, move it into a test file, or list it with a reason", u)
	}
}
