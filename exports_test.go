package iotscope_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers that may stay although no
// shipped code calls them, each with its reason. An entry that no longer
// exists, or that has gained a caller outside the tests and the frozen
// benchmark, fails the check, so the list cannot go stale.
var exportAllowlist = map[string]string{
	// Pinned by the frozen benchmark: tools/perfledger is the only caller.
	// ROADMAP item 4 moves the ledger onto what the binaries call and
	// empties this group.
	"core.Dataset.OpenSnapshot":           "perfledger times the snapshot load through it",
	"core.Dataset.VerifyHours":            "perfledger times the hour-file verify pass through it",
	"correlate.Correlator.ProcessDataset": "perfledger times the batch join through it",
	"correlate.Incremental.Ingest":        "perfledger times the incremental join through it",
	"matview.Build":                       "perfledger times the view build through it",
	"resultstore.WriteCheckpoint":         "perfledger times the checkpoint write through it",
	"stream.AlertLog.Append":              "perfledger times one journal append through it",

	// Test seams that substitute a fake or inject a fault.
	"resilience.RateLimiter.SetClock": "tests drive the limiter on a fake clock",
	"abusecontact.Resolver.FailTier":  "tests fail one resolution tier",

	// Helpers other packages' tests share, which cannot live in a _test.go.
	"netx.MustParseAddr":    "address literals in the tests of a dozen packages",
	"profiling.AllocBytes":  "allocation budgets in other packages' tests",
	"profiling.RaceEnabled": "tests that skip timing or allocation budgets under -race",
	"core.Dataset.Analyze":  "the library entry point that README.md and core's Example document",
}

// frozenPkg is the repository benchmark's harness. BENCHMARK.json freezes
// it, so what only it references counts as called only through the
// allowlist.
const frozenPkg = "iotscope/tools/perfledger"

// Every exported func, type, var, const and method in the module's non-test
// files must have a caller in a non-test file: a binary, a tool, an example
// or another package. What only tests reach is deleted or unexported.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, ".", "iotscope")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := deadExports(fset, pkgs, importer.ForCompiler(fset, "source", nil), frozenPkg, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedNames(problems) {
		t.Error(problems[name])
	}
}

// The check itself, on a small module held in memory: package a exports
// what its sibling b, the frozen harness and a's own tests call, and fx
// exists for a's tests.
func TestDeadExportsReportsOnlyUncalledNames(t *testing.T) {
	sources := map[string]map[string]string{
		"m/a": {"a.go": `package a

type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64      { return s.Side * s.Side }
func (s Square) Error() string      { return "square" }
func (s Square) Perimeter() float64 { return 4 * s.Side }

const (
	Small = 1
	Large = 2
)

type Orphan struct{}

func (o *Orphan) Touch() {}

func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

func Used() Square { return Square{Side: Small} }
func Pinned()      {}
func Seam()        {}
func Dead()        {}
`, "a_test.go": `package a

import "m/fx"

func helper() { Dead(); Seam(); fx.Helper() }
`},
		"m/b": {"main.go": `package main

import "m/a"

func main() {
	var s a.Shape = a.Used()
	var e error = a.Used()
	_, _ = s, e
}
`},
		"m/bench": {"main.go": `package main

import "m/a"

func main() { a.Pinned(); a.Used() }
`},
		"m/fx": {"fx.go": `package fx

func Helper() {}
func Unused() {}
`},
	}
	check := func(allow map[string]string) []string {
		t.Helper()
		fset := token.NewFileSet()
		var pkgs []*modPkg
		for p, files := range sources {
			mp := &modPkg{path: p}
			for name, src := range files {
				f, err := parser.ParseFile(fset, p+"/"+name, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasSuffix(name, "_test.go") {
					mp.tests = append(mp.tests, f)
				} else {
					mp.files = append(mp.files, f)
				}
			}
			pkgs = append(pkgs, mp)
		}
		problems, err := deadExports(fset, pkgs, importer.ForCompiler(fset, "source", nil), "m/bench", allow)
		if err != nil {
			t.Fatal(err)
		}
		return sortedNames(problems)
	}

	// Reported: what no shipped file calls, whether tests or the frozen
	// harness do, including a type named only by its own methods'
	// receivers and a function called only by itself. Not reported:
	// a.Used (called from b), a.Shape and a.Square (named by b and a.Used),
	// Area and Error (they satisfy Shape and error), Large (grouped with
	// the called Small), a.Seam (allowlisted) and fx.Helper (fx is for
	// tests, and a's tests call it).
	got := check(map[string]string{"a.Seam": "a test seam"})
	dead := []string{"a.Countdown", "a.Dead", "a.Orphan", "a.Orphan.Touch", "a.Pinned", "a.Square.Perimeter", "fx.Unused"}
	if !slices.Equal(got, dead) {
		t.Fatalf("reported %q, want %q", got, dead)
	}
	// Stale entries fail: one names nothing, one names what b calls.
	allow := map[string]string{"a.Seam": "", "a.Used": "", "a.Gone": ""}
	for _, name := range dead {
		allow[name] = ""
	}
	got = check(allow)
	if want := []string{"a.Gone", "a.Used"}; !slices.Equal(got, want) {
		t.Fatalf("with stale entries reported %q, want %q", got, want)
	}
}

// modPkg is one package of the module as the check sees it.
type modPkg struct {
	path   string
	files  []*ast.File // non-test files
	tests  []*ast.File // _test.go files of the package itself
	xtests []*ast.File // _test.go files of its external _test package
}

// loadModule parses every package under root, whose import path is module,
// honouring build constraints.
func loadModule(fset *token.FileSet, root, module string) ([]*modPkg, error) {
	var pkgs []*modPkg
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		mp := &modPkg{path: path.Join(module, filepath.ToSlash(p))}
		if mp.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if mp.tests, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if mp.xtests, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		pkgs = append(pkgs, mp)
		return nil
	})
	return pkgs, err
}

// Who references an exported object.
const (
	refShipped = 1 << iota // a non-test file outside the frozen benchmark
	refFrozen              // the frozen benchmark
	refTest                // another package's test file
)

// modImporter type-checks each module package once, in dependency order,
// and hands everything else to std, which caches what it loads.
type modImporter struct {
	fset    *token.FileSet
	std     types.Importer
	byPath  map[string]*modPkg
	checked map[string]*types.Package
	infos   map[string]*types.Info
	busy    map[string]bool
}

func (m *modImporter) Import(p string) (*types.Package, error) {
	if pkg := m.checked[p]; pkg != nil {
		return pkg, nil
	}
	mp := m.byPath[p]
	if mp == nil {
		return m.std.Import(p)
	}
	if m.busy[p] {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	m.busy[p] = true
	info := newInfo()
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, mp.files, info)
	if err != nil {
		return nil, err
	}
	m.checked[p], m.infos[p] = pkg, info
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// Interfaces the standard library asserts without naming them.
const anonInterfaces = `package anon
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

// deadExports type-checks pkgs and returns, by qualified name, a message
// for each exported identifier without a non-test caller and for each
// allowlist entry that is missing or no longer needed. References from the
// frozen package count only through the allowlist. Test files count as
// callers only of a package that no non-test file imports, and only from
// another package.
func deadExports(fset *token.FileSet, pkgs []*modPkg, std types.Importer, frozen string, allow map[string]string) (map[string]string, error) {
	imp := &modImporter{fset: fset, std: std, byPath: map[string]*modPkg{},
		checked: map[string]*types.Package{}, infos: map[string]*types.Info{}, busy: map[string]bool{}}
	for _, mp := range pkgs {
		imp.byPath[mp.path] = mp
	}
	for _, mp := range pkgs {
		if _, err := imp.Import(mp.path); err != nil {
			return nil, err
		}
	}

	// A library package that no non-test file imports exists for tests.
	testOnly := map[string]bool{}
	for _, mp := range pkgs {
		testOnly[mp.path] = imp.checked[mp.path].Name() != "main"
	}
	for _, mp := range pkgs {
		for _, f := range mp.files {
			for _, is := range f.Imports {
				testOnly[strings.Trim(is.Path.Value, `"`)] = false
			}
		}
	}

	refs := map[types.Object]int{}
	for _, mp := range pkgs {
		kind := refShipped
		if mp.path == frozen {
			kind = refFrozen
		}
		for _, f := range mp.files {
			collectRefs(f, imp.infos[mp.path], kind, refs)
		}
	}

	// Test variants of the packages whose tests import a test-only package.
	// Errors are tolerated: only the references into that package matter.
	for _, mp := range pkgs {
		if !importsAny(mp.tests, testOnly) && !importsAny(mp.xtests, testOnly) {
			continue
		}
		quiet := types.Config{Importer: imp, Error: func(error) {}}
		info := newInfo()
		variant, _ := quiet.Check(mp.path, fset, append(append([]*ast.File{}, mp.files...), mp.tests...), info)
		infos := []*types.Info{info}
		if len(mp.xtests) > 0 {
			xinfo := newInfo()
			xconf := types.Config{Error: func(error) {}, Importer: importerFunc(func(p string) (*types.Package, error) {
				if p == mp.path && variant != nil {
					return variant, nil
				}
				return imp.Import(p)
			})}
			xconf.Check(mp.path+"_test", fset, mp.xtests, xinfo)
			infos = append(infos, xinfo)
		}
		for _, info := range infos {
			for _, obj := range info.Uses {
				if obj = origin(obj); obj.Pkg() != nil && testOnly[obj.Pkg().Path()] && obj.Pkg().Path() != mp.path {
					refs[obj] |= refTest
				}
			}
		}
	}

	markInterfaceMethods(imp, refs)

	// A const counts as called when another member of its group is.
	for _, mp := range pkgs {
		info := imp.infos[mp.path]
		for _, f := range mp.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST || !gd.Lparen.IsValid() {
					continue
				}
				used := false
				var members []types.Object
				for _, s := range gd.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						members = append(members, info.Defs[n])
						used = used || refs[info.Defs[n]]&refShipped != 0
					}
				}
				for _, obj := range members {
					if used && obj != nil {
						refs[obj] |= refShipped
					}
				}
			}
		}
	}

	problems := map[string]string{}
	for _, mp := range pkgs {
		if mp.path == frozen {
			continue
		}
		info := imp.infos[mp.path]
		called := refShipped
		if testOnly[mp.path] {
			called |= refTest
		}
		for _, f := range mp.files {
			for _, obj := range exportedDecls(f, info) {
				name, pos := qualified(obj), fset.Position(obj.Pos())
				r := refs[obj]
				_, listed := allow[name]
				switch {
				case listed && r&called != 0:
					problems[name] = fmt.Sprintf("%s: %s is allowlisted but has a non-test caller now; drop the entry", pos, name)
				case listed, r&called != 0:
					problems[name] = ""
				case r&refFrozen != 0:
					problems[name] = fmt.Sprintf("%s: %s is called only by the frozen benchmark and tests; delete or unexport it", pos, name)
				default:
					problems[name] = fmt.Sprintf("%s: %s has no caller outside tests; delete it, or unexport it if its own tests need it", pos, name)
				}
			}
		}
	}
	for name := range allow {
		if _, ok := problems[name]; !ok {
			problems[name] = fmt.Sprintf("allowlist entry %s names no exported identifier; drop it", name)
		}
	}
	for name, msg := range problems {
		if msg == "" {
			delete(problems, name)
		}
	}
	return problems, nil
}

func sortedNames(problems map[string]string) []string {
	names := make([]string, 0, len(problems))
	for name := range problems {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

func importsAny(files []*ast.File, paths map[string]bool) bool {
	for _, f := range files {
		for _, is := range f.Imports {
			if paths[strings.Trim(is.Path.Value, `"`)] {
				return true
			}
		}
	}
	return false
}

func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// collectRefs records with kind every reference f makes to an exported
// object of another declaration: a function's own body and a type's own
// spec and method receivers do not call it.
func collectRefs(f *ast.File, info *types.Info, kind int, refs map[types.Object]int) {
	walk := func(n ast.Node, self ...types.Object) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !obj.Exported() {
				return true
			}
			obj = origin(obj)
			for _, s := range self {
				if obj == s {
					return true
				}
			}
			refs[obj] |= kind
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn := info.Defs[d.Name]
			if d.Recv != nil {
				walk(d.Recv, fn, recvType(fn))
			}
			walk(d.Type, fn)
			walk(d.Body, fn)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					walk(ts, info.Defs[ts.Name])
				} else {
					walk(s)
				}
			}
		}
	}
}

// recvType is the type name a method is declared on, or nil for a function.
func recvType(obj types.Object) types.Object {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// markInterfaceMethods counts a method as called when it is part of how a
// module type satisfies an interface: a named one in any package the module
// reaches, a literal one in module code, or one the standard library asserts
// without naming.
func markInterfaceMethods(imp *modImporter, refs map[types.Object]int) {
	var ifaces []*types.Interface
	addNamed := func(pkg *types.Package) {
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		addNamed(pkg)
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	var named []*types.Named
	for p, pkg := range imp.checked {
		visit(pkg)
		for _, tv := range imp.infos[p].Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams() == nil {
					named = append(named, nt)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "anon.go", anonInterfaces, 0)
	anon, _ := (&types.Config{}).Check("anon", fset, []*ast.File{f}, nil)
	addNamed(anon)

	for _, nt := range named {
		ptr := types.NewPointer(nt)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					refs[origin(sel.Obj())] |= refShipped
				}
			}
		}
	}
}

// exportedDecls lists the exported package-level funcs, types, vars and
// consts f declares, and its exported methods.
func exportedDecls(f *ast.File, info *types.Info) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.IsExported() && info.Defs[id] != nil {
			objs = append(objs, info.Defs[id])
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
	return objs
}

// qualified names obj as the allowlist does: pkg.Name or pkg.Type.Method.
func qualified(obj types.Object) string {
	if recv := recvType(obj); recv != nil {
		return obj.Pkg().Name() + "." + recv.Name() + "." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
