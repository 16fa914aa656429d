package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupportAPI lists the declarations that exist for tests in other
// packages (or as oracles for shipped writers and encoders) and so
// have no caller in non-test code. Keys are "pkg.Name" or
// "pkg.Type.Method", with pkg the path below internal/ or "leodivide"
// for the root package. Keep it short: a helper only one package's
// tests need belongs in that package's _test.go.
var testSupportAPI = map[string]string{
	"constellation.System.Validate":    "invariant check the declared system table is tested against",
	"core.NewModel":                    "paper-default capacity model the core tests start from",
	"demand.Aggregate":                 "reference aggregation the bdc generator tests compare against",
	"golden.WriteFile":                 "regenerates the golden corpus from the root golden tests",
	"hexgrid.ForEachCell":              "whole-globe enumeration the hexgrid and bdc grid tests check against",
	"leodivide.ScenarioConfig.Request": "wire form of a scenario that FuzzParseScenarioRequest round-trips",
	"obs.Registry.Reset":               "zeroes a registry in place so tests can isolate readings",
	"safeio.FaultWriter":               "write-fault double for the safeio and leodivide gen/export fault tests",
	"safeio.SetCloseFault":             "fault hook: fails WriteFile's temp-file Close in tests",
	"safeio.SetSyncFault":              "fault hook: fails WriteFile's fsync in tests",
	"safeio.SetWriteFault":             "fault hook: interposes on WriteFile in tests",
	"usgeo.Counties":                   "county table the bdc grid tests check cell assignment against",
}

// TestInternalAPIHasCallers keeps test-only API out of internal/ and
// out of the root leodivide package: every package-level func, method,
// type and const there must be referenced by non-test code somewhere
// in the module from outside its own declaration (for a const, its
// name). The commands under cmd/, the programs under examples/ and the
// _bench harness count as callers, as do the root package and every
// internal package. A type's own methods do not count as references to
// it. Methods that satisfy some interface are exempt, since an
// interface call names the interface method, not the concrete one.
// internal/analysis (the linter, which has its own tests and a CLI)
// and internal/testutil (test support by definition) are excluded.
func TestInternalAPIHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := testLoader(t)
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	bench, err := loader.LoadDir(filepath.Join(loader.ModuleDir, "_bench"), loader.ModulePath+"/bench")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, bench)

	internal := loader.ModulePath + "/internal/"
	type decl struct {
		key      string
		spans    [][2]token.Pos // uses inside these ranges do not count; the first is the declaration
		isMethod bool
	}
	decls := map[types.Object]*decl{}
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, internal)
		if pkg.Path == loader.ModulePath {
			rel, ok = pkg.Types.Name(), true
		}
		if !ok || rel == "analysis" || rel == "testutil" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						continue
					}
					obj := pkg.Info.Defs[d.Name]
					key := rel + "." + d.Name.Name
					if d.Recv != nil {
						key = rel + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls[obj] = &decl{key: key, spans: [][2]token.Pos{{d.Pos(), d.End()}}, isMethod: d.Recv != nil}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.Name != "_" {
								decls[pkg.Info.Defs[s.Name]] = &decl{key: rel + "." + s.Name.Name, spans: [][2]token.Pos{{s.Pos(), s.End()}}}
							}
						case *ast.ValueSpec:
							if d.Tok != token.CONST {
								continue
							}
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[pkg.Info.Defs[n]] = &decl{key: rel + "." + n.Name, spans: [][2]token.Pos{{n.Pos(), n.End()}}}
								}
							}
						}
					}
				}
			}
		}
	}
	// A type's methods do not keep the type alive: widen each type's
	// excluded spans by its method declarations.
	for obj, d := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || !d.isMethod {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			if td := decls[named.Origin().Obj()]; td != nil {
				td.spans = append(td.spans, d.spans[0])
			}
		}
	}

	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			d := decls[obj]
			if d == nil || used[obj] {
				continue
			}
			inside := false
			for _, s := range d.spans {
				if id.Pos() >= s[0] && id.Pos() < s[1] {
					inside = true
				}
			}
			if !inside {
				used[obj] = true
			}
		}
	}

	ifaces := interfacesOf(pkgs)
	var unused []string
	declared := map[string]bool{}
	for obj, d := range decls {
		declared[d.key] = true
		if _, exempt := testSupportAPI[d.key]; exempt {
			if used[obj] {
				t.Errorf("testSupportAPI exempts %s, which now has a non-test caller; drop the entry", d.key)
			}
			continue
		}
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && d.isMethod && satisfiesInterface(fn, ifaces) {
			continue
		}
		unused = append(unused, d.key+" ("+loader.Fset.Position(d.spans[0][0]).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("declaration has no non-test caller: %s", u)
	}
	for key := range testSupportAPI {
		if !declared[key] {
			t.Errorf("testSupportAPI lists %s, which is no longer declared", key)
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// interfacesOf gathers every interface type the loaded packages can
// see: named interfaces in them and in everything they import
// (fmt.Stringer, sort.Interface, http.Handler, ...), the universe's
// error, and the literal interface types their code mentions (as in a
// w.(interface{ Flush() }) assertion).
func interfacesOf(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				if _, named := tv.Type.(*types.Named); !named {
					add(tv.Type)
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether fn's receiver type (or a pointer
// to it) implements some interface that has a method named fn.Name().
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
