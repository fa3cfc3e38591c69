package ftqc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow are the functions and methods no binary reaches that stay,
// keyed as TestReachable prints them, each with its reason. Every entry
// is one more root, so its callees need no entry of their own; an entry
// goes when a binary reaches it or it is deleted, and the test fails on a
// stale one. A reason is one of four:
//
//	(a) a reference a named test holds a production path to;
//	(b) a fixture another package's tests need, naming the packages;
//	(c) the code an EXPERIMENTS row (E01–E21) rests on that no
//	    subcommand runs yet, naming the row and its test;
//	(d) bench/ code, which only a benchmark change edits.
var reachAllow = map[string]string{
	// (a) references.
	"frame.New":                            "(a) the scalar simulator TestBatchMatchesScalarOnRandomCircuits and the lockstep suites hold BatchSim to",
	"frame.NewLockstepSampler":             "(a) per-lane sampler that makes BatchSim and Sim draw alike in the lockstep suites (TestBatchMatchesScalarOnRandomCircuits)",
	"ft.RunEC":                             "(a) one scalar recovery, the reference of TestBatchECFailureEquivalence and TestBatchExRecEquivalence",
	"ft.IdealDecode":                       "(a) end-of-experiment referee of TestBatchMemoryEquivalence and the scalar EC tests",
	"spacetime.Volume.Decode":              "(a) the per-lane whole-volume decode TestOracle holds every decode path to",
	"tableau.SameState":                    "(a) stabilizer-state equality, the reference of TestFrameMatchesTableauConjugation",
	"frame.Sim.PrepX":                      "(a) scalar Sim's X-basis preparation, held to BatchSim's in TestBatchMatchesScalarGateByGate",
	"frame.Sim.ReplaceLeaked":              "(a) scalar Sim's leak replacement, held to BatchSim's in TestBatchMatchesScalarGateByGate",
	"frame.Sim.XError":                     "(a) scalar Sim's X frame bit, compared lane by lane in TestBatchMatchesScalarOnRandomCircuits",
	"frame.Sim.ZError":                     "(a) scalar Sim's Z frame bit, compared lane by lane in TestBatchMatchesScalarOnRandomCircuits",
	"frame.Sim.Leaked":                     "(a) scalar Sim's leak flag, compared lane by lane in TestBatchMatchesScalarOnRandomCircuits",
	"frame.Sim.InjectX":                    "(a) a placed X fault on the scalar Sim, TestPropagationIdentities and ft's single-fault tests",
	"frame.Sim.InjectZ":                    "(a) a placed Z fault on the scalar Sim, TestPropagationIdentities and ft's single-fault tests",
	"frame.LockstepSampler.Stream":         "(a) the lockstep sampler's per-lane stream, TestBatchMatchesScalarOnRandomCircuits",
	"frame.LockstepSampler.Bernoulli":      "(a) the lockstep sampler's Bernoulli planes, TestBlockFaultsMatchBernoulli",
	"frame.LockstepSampler.BernoulliBlock": "(a) the lockstep sampler's block draw, TestBlockFaultsMatchBernoulli",
	"frame.LockstepSampler.Coin":           "(a) the lockstep sampler's coin planes, TestBlockFaultsMatchBernoulli",
	"statevec.State.ApplyPauli":            "(a) state-vector Pauli, the reference of tableau's TestApplyPauliFlipsSign",
	"statevec.State.ExpectPauli":           "(a) state-vector expectation, the reference of tableau's TestCrossValidateAgainstStatevector",
	"statevec.State.Clone":                 "(a) state-vector copy, tableau's TestCrossValidateAgainstStatevector",
	"statevec.State.Y":                     "(a) state-vector Y, tableau's TestCrossValidateAgainstStatevector",
	"statevec.State.S":                     "(a) state-vector S, tableau's TestCrossValidateAgainstStatevector",

	// (b) fixtures other packages' tests need.
	"toric.Lattice.Syndrome":            "(b) plaquette syndrome of an error pattern, spacetime's TestDecodeClearsProjectedSyndrome",
	"toric.Lattice.StarSyndrome":        "(b) star syndrome of an error pattern, spacetime's TestDecodeClearsProjectedSyndrome",
	"stream.Decoder.PushErased":         "(b) an explicit erased round, pushed by oracle's TestOracle (empty-plane path)",
	"stream.Session.BatchMemoryFrom":    "(b) a drain over a given source, for spacetime's TestCircuitReducesToPhenomenological and the root benchmarks",
	"frame.BatchSim.ArmTrigger":         "(b) one scripted fault per lane, for surface's and ft's single-fault enumerations",
	"frame.BatchSim.DisarmTriggers":     "(b) clears ArmTrigger's faults, for ft's TestBatchSteaneECSingleFaultExhaustive",
	"frame.BatchSim.LaneLocationCount":  "(b) per-lane location count, for surface's TestLocationsPerRound",
	"frame.BatchSim.InjectX":            "(b) a placed X fault, for ft's and surface's fault tests",
	"frame.BatchSim.InjectZ":            "(b) a placed Z fault, for ft's and surface's fault tests",
	"frame.RoundPlan.Locations":         "(b) locations per compiled round, for surface's fault enumeration (its test-side LocationsPerRound)",
	"surface.LayerSource.ErrorPlanes":   "(b) the source's error planes, for stream's TestCodeStreamingSoundness",
	"surface.CircuitSource.ErrorPlanes": "(b) the source's error planes, for stream's TestCodeStreamingSoundness",
	"bits.Matrix.Solve":                 "(b) GF(2) solve, for code's tests (prepareEigenstate)",
	"circuit.Circuit.S":                 "(b) circuit builder, for frame's TestBatchMatchesScalarOnRandomCircuits",
	"circuit.Circuit.X":                 "(b) circuit builder, for frame's TestBatchMatchesScalarOnRandomCircuits",
	"circuit.Circuit.Z":                 "(b) circuit builder, for frame's and tableau's tests",
	"circuit.Circuit.CZ":                "(b) circuit builder, for frame's TestBatchMatchesScalarOnRandomCircuits",
	"circuit.Circuit.MeasZ":             "(b) circuit builder, for frame's TestMeasurementReadsFrame",
	"circuit.Circuit.MeasX":             "(b) circuit builder, for frame's TestMeasurementReadsFrame",
	"circuit.Circuit.Barrier":           "(b) circuit builder, for frame's TestStorageNoiseOnlyWhenIdle",
	"code.Code.MinDistance":             "(b) logical-weight search, for ft's TestCodeIsValidSteane",
	"frame.BatchSim.N":                  "(b) wire count, for surface's TestFusedRoundBitIdentical",
	"pauli.Pauli.Equal":                 "(b) Pauli equality with phase, for code's tests",
	"pauli.Pauli.EqualUpToPhase":        "(b) Pauli equality up to phase, for code's TestQuickDecoderFixedPoint",
	"tableau.Tableau.N":                 "(b) tableau qubit count, for code's and ft's tests",

	// (c) paper rows no subcommand runs yet.
	"code.CSSDecoder.DecodeError":     "(c) E02: per-sector decode; TestSteaneMixedPairRecoverable",
	"code.ShorFamily":                 "(c) E11: the [[(2t+1)²,1,2t+1]] family; TestShorFamilyCorrectsTErrors",
	"ft.PrepZeroCircuit":              "(c) E15: Fig. 3 encoder with a |0⟩ input; TestPrepZeroCircuitOnTableau",
	"ft.LogicalH":                     "(c) E15: transversal Hadamard (Eq. 11); TestLogicalHOnTableau",
	"ft.LogicalS":                     "(c) E15: transversal phase gate (§4.1); TestLogicalSOnTableau",
	"ft.ToffoliGadgetFidelity":        "(c) E16: measurement-based Toffoli fidelity; TestToffoliGadgetExact",
	"ft.NewGenericEC":                 "(c) E21: Shor-method EC for any stabilizer code; TestGenericECCorrectsAllSingleErrorsFiveQubit",
	"ft.GenericEC.Recover":            "(c) E21: one generic recovery; TestGenericECFaultTolerantFiveQubit",
	"ft.GenericEC.IdealDecodeGeneric": "(c) E21: the generic referee; TestGenericECFaultTolerantFiveQubit",
	"code.FiveQubit":                  "(c) E21: the [[5,1,3]] code of §4.2; TestGenericECCorrectsAllSingleErrorsFiveQubit",
	"pauli.Pauli.Embed":               "(c) E15: a block operator on the full register; ft's TestLogicalCNOTPropagatesLogicalState",

	// (d) bench/.
	"bench.maxOf": "(d) bench/stats.go helper; bench/ changes only with a benchmark change",
}

// TestReachable is the reachability rule: every non-test function and
// method of the module is reached from a root, or listed in reachAllow.
//
// The roots are the main functions of cmd/ftqc, bench and examples/*,
// every init function and package-level variable initialiser, the
// facade's exported functions and reachAllow's entries. An edge is any
// reference to a function or method, as a call or as a value; a generic
// instantiation is its origin. Interface calls are resolved by Rapid
// Type Analysis: a reached reference to an interface method reaches the
// same-named method of every concrete type that reached code converts
// to an interface. The standard library is not walked, so a conversion
// to an interface it declares reaches that interface's methods, and the
// hooks fmt and encoding call (String, Error, Format, …) on the value
// and on every value fmt's reflection reaches inside it.
//
// It also keeps the rule it replaces for the other package-level names:
// an exported type, variable or constant under internal/ is used by a
// non-test file.
func TestReachable(t *testing.T) {
	w := load(t)
	for _, root := range w.roots {
		w.reach(nil, root)
	}
	for len(w.work) > 0 {
		fn := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		w.walk(fn, w.funcs[fn], fn.Type().(*types.Signature))
	}

	var msgs []string
	declared := map[string]bool{}
	for fn, decl := range w.funcs {
		key := funcKey(fn)
		declared[key] = true
		if _, listed := reachAllow[key]; !w.reached[fn] && !listed {
			pos, end := w.fset.Position(decl.Pos()), w.fset.Position(decl.End())
			msgs = append(msgs, fmt.Sprintf("%s: %s (%d lines) is reached by no binary: delete it with the tests that only exercise it, or list it in reachAllow with a reason", pos, key, end.Line-pos.Line+1))
		}
	}
	for key := range reachAllow {
		switch {
		case !declared[key]:
			msgs = append(msgs, key+" is no longer declared; drop it from reachAllow")
		case w.referenced[key]:
			msgs = append(msgs, key+" is reached from another root now; drop it from reachAllow")
		}
	}
	for obj, used := range w.exported {
		if !used {
			msgs = append(msgs, fmt.Sprintf("%s: %s.%s is exported but no non-test file uses it: give it a use, unexport it or delete it", w.fset.Position(obj.Pos()), obj.Pkg().Name(), obj.Name()))
		}
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		t.Error(msg)
	}
}

// walker holds the module's type-checked non-test code and the state of
// the walk over it.
type walker struct {
	fset     *token.FileSet
	info     *types.Info
	funcs    map[*types.Func]*ast.FuncDecl
	exported map[types.Object]bool // exported package-level non-functions under internal/: used?
	roots    []*types.Func

	reached    map[*types.Func]bool
	referenced map[string]bool // keys some reached function refers to, itself aside
	work       []*types.Func
	called     map[string]bool // interface method names reached code calls
	converted  map[types.Type]bool
}

// load parses and type-checks every non-test package of the module
// (the current build context's files), importing the standard library
// from export data, and collects the declarations and roots.
func load(t *testing.T) *walker {
	w := &walker{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		},
		funcs:      map[*types.Func]*ast.FuncDecl{},
		exported:   map[types.Object]bool{},
		reached:    map[*types.Func]bool{},
		referenced: map[string]bool{},
		called:     map[string]bool{},
		converted:  map[types.Type]bool{},
	}
	pkgs := map[string]*build.Package{} // by import path
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		pkgs[strings.TrimSuffix("ftqc/"+filepath.ToSlash(path), "/.")] = bp
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return std.Import(path)
	})}
	var files []*ast.File
	var check func(path string)
	check = func(path string) {
		bp := pkgs[path]
		if _, done := checked[path]; done || bp == nil {
			return
		}
		checked[path] = nil
		for _, imp := range bp.Imports {
			check(imp)
		}
		var pf []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(w.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pf = append(pf, f)
		}
		tp, err := conf.Check(path, w.fset, pf, w.info)
		if err != nil {
			t.Fatal(err)
		}
		checked[path] = tp
		files = append(files, pf...)
	}
	for path := range pkgs {
		check(path)
	}

	for _, f := range files {
		internal := strings.HasPrefix(filepath.ToSlash(w.fset.Position(f.Pos()).Filename), "internal/")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := w.info.Defs[decl.Name].(*types.Func)
				w.funcs[fn] = decl
				name := decl.Name.Name
				if decl.Recv == nil && (name == "init" || name == "main" && fn.Pkg().Name() == "main" || fn.Pkg().Path() == "ftqc" && decl.Name.IsExported()) {
					w.roots = append(w.roots, fn)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ids := []*ast.Ident{}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						ids = append(ids, spec.Name)
					case *ast.ValueSpec:
						ids = spec.Names
					}
					for _, id := range ids {
						if internal && id.IsExported() {
							w.exported[w.info.Defs[id]] = false
						}
					}
				}
			}
		}
	}
	for _, obj := range w.info.Uses {
		if _, ok := w.exported[obj]; ok {
			w.exported[obj] = true
		}
	}
	for fn := range w.funcs {
		if _, ok := reachAllow[funcKey(fn)]; ok {
			w.roots = append(w.roots, fn)
		}
	}
	// Package-level variable initialisers run in every binary that links
	// their package: walk them before anything else.
	for _, f := range files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				w.walk(nil, gd, nil)
			}
		}
	}
	return w
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reach marks fn (a function or concrete method) reached from `from`
// (nil for a root) and queues its body.
func (w *walker) reach(from, fn *types.Func) {
	fn = fn.Origin()
	if _, ours := w.funcs[fn]; !ours {
		return
	}
	if from != nil && from != fn {
		w.referenced[funcKey(fn)] = true
	}
	if !w.reached[fn] {
		w.reached[fn] = true
		w.work = append(w.work, fn)
	}
}

// call records a reached call of the interface method `name`: it
// reaches the method of that name of every type converted so far.
func (w *walker) call(from *types.Func, name string) {
	if w.called[name] {
		return
	}
	w.called[name] = true
	for typ := range w.converted {
		w.dispatch(from, typ, func(n string) bool { return n == name })
	}
}

func (w *walker) dispatch(from *types.Func, typ types.Type, want func(name string) bool) {
	ms := types.NewMethodSet(typ)
	for i := range ms.Len() {
		if fn := ms.At(i).Obj().(*types.Func); want(fn.Name()) {
			w.reach(from, fn)
		}
	}
}

// stdHooks are the methods the standard library calls on a value
// through an interface it declares itself.
var stdHooks = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "Unwrap": true, "Is": true, "As": true,
}

// convert records that a value of concrete type typ becomes the
// interface `to` (nil for a type argument, which may become any
// interface its generic code converts it to).
func (w *walker) convert(from *types.Func, typ, to types.Type) {
	if named, ok := types.Unalias(to).(*types.Named); to == nil || ok && named.Obj().Pkg() != nil && strings.HasPrefix(named.Obj().Pkg().Path(), "ftqc") {
		if !w.converted[typ] {
			w.converted[typ] = true
			w.dispatch(from, typ, func(n string) bool { return w.called[n] })
		}
		if to != nil {
			return
		}
	}
	// An interface the standard library declares: its methods, and the
	// hooks of the value and of everything fmt's reflection reaches in it.
	own := map[string]bool{}
	if to != nil {
		iface := to.Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			own[iface.Method(i).Name()] = true
		}
	}
	seen := map[types.Type]bool{}
	var hooks func(typ types.Type, own map[string]bool)
	hooks = func(typ types.Type, own map[string]bool) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		w.dispatch(from, typ, func(n string) bool { return stdHooks[n] || own[n] })
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				hooks(u.Field(i).Type(), nil)
			}
		case *types.Map:
			hooks(u.Key(), nil)
			hooks(u.Elem(), nil)
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			hooks(u.Elem(), nil)
		}
	}
	hooks(typ, own)
}

// walk visits one function body (sig its signature) or a variable
// declaration (sig nil), reaching what it refers to and recording the
// interface calls and conversions it makes.
func (w *walker) walk(from *types.Func, node ast.Node, sig *types.Signature) {
	conv := func(e ast.Expr, to types.Type) {
		if tv, ok := w.info.Types[e]; ok && to != nil && types.IsInterface(to) && tv.Type != nil && !types.IsInterface(tv.Type) && !tv.IsNil() {
			w.convert(from, tv.Type, to)
		}
	}
	sigs := []*types.Signature{sig}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sigs = append(sigs, w.info.Types[n].Type.(*types.Signature))
			ast.Inspect(n.Body, visit)
			sigs = sigs[:len(sigs)-1]
			return false
		case *ast.Ident:
			if fn, ok := w.info.Uses[n].(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					w.call(from, fn.Name())
				} else {
					w.reach(from, fn)
				}
			}
			if inst, ok := w.info.Instances[n]; ok {
				for i := range inst.TypeArgs.Len() {
					w.convert(from, inst.TypeArgs.At(i), nil)
				}
			}
		case *ast.CallExpr:
			tv := w.info.Types[n.Fun]
			if tv.IsType() {
				conv(n.Args[0], tv.Type)
				break
			}
			s, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break // a builtin
			}
			params := s.Params()
			for i, arg := range n.Args {
				switch {
				case s.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
					conv(arg, params.At(params.Len()-1).Type().(*types.Slice).Elem())
				case i < params.Len():
					conv(arg, params.At(min(i, params.Len()-1)).Type())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					conv(n.Rhs[i], w.info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, v := range n.Values {
					conv(v, w.info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if s := sigs[len(sigs)-1]; s != nil && s.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					conv(r, s.Results().At(i).Type())
				}
			}
		case *ast.CompositeLit:
			for i, elt := range n.Elts {
				kv, keyed := elt.(*ast.KeyValueExpr)
				switch u := w.info.TypeOf(n).Underlying().(type) {
				case *types.Struct:
					if keyed {
						conv(kv.Value, w.info.TypeOf(kv.Key))
					} else {
						conv(elt, u.Field(i).Type())
					}
				case *types.Map:
					conv(kv.Key, u.Key())
					conv(kv.Value, u.Elem())
				case interface{ Elem() types.Type }: // slice, array
					if keyed {
						elt = kv.Value
					}
					conv(elt, u.Elem())
				}
			}
		case *ast.SendStmt:
			conv(n.Value, w.info.TypeOf(n.Chan).Underlying().(*types.Chan).Elem())
		case *ast.IndexExpr:
			if mp, ok := w.info.TypeOf(n.X).Underlying().(*types.Map); ok {
				conv(n.Index, mp.Key())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				conv(n.X, w.info.TypeOf(n.Y))
				conv(n.Y, w.info.TypeOf(n.X))
			}
		}
		return true
	}
	ast.Inspect(node, visit)
}

// funcKey names a function as "pkg.Name" or "pkg.Type.Method", where
// pkg is the package name, or the directory of a main package.
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	if pkg == "main" {
		pkg = strings.TrimPrefix(fn.Pkg().Path(), "ftqc/")
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		return pkg + "." + types.Unalias(typ).(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}
