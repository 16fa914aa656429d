package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder catches the bug class that most reliably breaks golden
// replay: Go randomizes map iteration order, so a `range` over a map
// that appends to an outer slice or writes output bakes that randomness
// into the result. The repo's sanctioned pattern — collect keys, sort,
// iterate the sorted slice — passes automatically: an append target
// that is sorted on every control-flow path from the loop to the
// function exit is considered ordered. (v1 accepted any sort call
// positioned after the loop; the CFG check closes the conditional-sort
// hole, where `if cond { sort.Strings(keys) }` left the else path
// unsorted.)
//
// Order-dependent *value* flows — float/string accumulation, selections
// without tie-breaks, derived locals — are maptaint's business; this
// rule keeps the syntactic container/output clauses.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "map range whose body appends to an outer slice (without a sort on every following path) " +
		"or writes output — map iteration order would leak into results",
	Engine: EngineDataflow,
	Run:    maporderRun,
}

// maporderWriteMethods are the output-writing methods: the io and
// bytes/strings writers, and AddRow, which appends a row to a
// report.Table that is later written out in row order.
var maporderWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true,
}

var maporderFmtWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func maporderRun(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				maporderFunc(p, n)
			}
			return true
		})
	}
}

// maporderFunc checks the map-range loops on fn's own CFG. Nested
// function literals build their own graphs and are visited separately,
// so a sort inside a closure never excuses an append outside it (and
// vice versa).
func maporderFunc(p *Pass, fn ast.Node) {
	cfg := p.CFG(fn)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if t := p.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					maporderLoop(p, cfg, rs)
				}
			}
		}
	}
}

func maporderLoop(p *Pass, cfg *CFG, rs *ast.RangeStmt) {
	inspectShallow(rs.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if obj := callIdentObj(p, call); obj == types.Universe.Lookup("append") {
			maporderAppend(p, cfg, rs, call)
			return
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if maporderWriteMethods[sel.Sel.Name] && p.Info.Selections[sel] != nil {
				p.Reportf(call.Pos(), "%s inside a map range writes in random iteration order; iterate sorted keys instead", sel.Sel.Name)
				return
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := p.Info.Uses[id].(*types.PkgName); ok &&
					pn.Imported().Path() == "fmt" && maporderFmtWriters[sel.Sel.Name] {
					p.Reportf(call.Pos(), "fmt.%s inside a map range writes in random iteration order; iterate sorted keys instead", sel.Sel.Name)
				}
			}
		}
	})
}

// maporderAppend flags append(target, ...) when target lives outside
// the loop and some path from the loop to the function exit passes no
// sort of it. Targets may be plain identifiers or selector chains
// (s.items); both are matched against later sort.*/slices.* arguments
// by expression identity.
func maporderAppend(p *Pass, cfg *CFG, rs *ast.RangeStmt, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	var name string
	switch target := call.Args[0].(type) {
	case *ast.Ident:
		obj := p.Info.ObjectOf(target)
		if obj == nil || within(obj.Pos(), rs.Body) {
			return // loop-local scratch; its use sites get their own look
		}
		name = target.Name
	case *ast.SelectorExpr:
		base := baseIdentObj(p, target)
		if base == nil || within(base.Pos(), rs.Body) {
			return
		}
		name = types.ExprString(target)
	default:
		return
	}
	if sortedOnEveryPath(p, cfg, rs, types.ExprString(call.Args[0])) {
		return
	}
	p.Reportf(call.Pos(), "append to %s inside a map range records random iteration order; sort %s on every path after the loop (sort.* / slices.*) or iterate sorted keys", name, name)
}

// sortedOnEveryPath reports whether every control-flow path from the
// range loop to the function exit either passes a statement sorting the
// expression (spelled identically) via sort.* / slices.*, or leaves the
// function without exposing it — a `return nil, err` or a panic inside
// the loop discards the partially-built slice, so iteration order never
// reaches a caller on that path.
func sortedOnEveryPath(p *Pass, cfg *CFG, rs *ast.RangeStmt, targetExpr string) bool {
	header, _ := cfg.BlockOf(rs)
	if header == nil {
		return false
	}
	base := targetExpr
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	sortsTarget := func(b *Block) bool {
		for _, bn := range b.Nodes {
			found := false
			inspectShallow(bn, func(x ast.Node) {
				call, ok := x.(*ast.CallExpr)
				if !ok || found {
					return
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return
				}
				pn, ok := p.Info.Uses[id].(*types.PkgName)
				if !ok {
					return
				}
				if path := pn.Imported().Path(); path != "sort" && path != "slices" {
					return
				}
				for _, arg := range call.Args {
					if types.ExprString(arg) == targetExpr {
						found = true
					}
				}
			})
			if found {
				return true
			}
		}
		return false
	}
	// escapesWithout reports whether a block ends the function without
	// the target: a return whose results never mention the target's
	// base identifier, or a panic. Such blocks terminate a path
	// harmlessly — the appended data is thrown away.
	escapesWithout := func(b *Block) bool {
		for _, bn := range b.Nodes {
			switch s := bn.(type) {
			case *ast.ReturnStmt:
				if len(s.Results) == 0 {
					// A bare return exposes named results; harmless
					// only when the target is not among them.
					var ft *ast.FuncType
					switch fn := cfg.Fn.(type) {
					case *ast.FuncDecl:
						ft = fn.Type
					case *ast.FuncLit:
						ft = fn.Type
					}
					if ft != nil && ft.Results != nil {
						for _, field := range ft.Results.List {
							for _, nm := range field.Names {
								if nm.Name == base {
									return false
								}
							}
						}
					}
					return true
				}
				mentions := false
				for _, res := range s.Results {
					inspectShallow(res, func(x ast.Node) {
						if id, ok := x.(*ast.Ident); ok && id.Name == base {
							mentions = true
						}
					})
				}
				return !mentions
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if callIdentObj(p, call) == types.Universe.Lookup("panic") {
						return true
					}
				}
			}
		}
		return false
	}
	// Unsorted on some path ⟺ the exit is reachable from the loop
	// header while avoiding every block that sorts the target or
	// leaves the function without it.
	return !cfg.PathExistsAvoiding([]*Block{header}, cfg.Exit, func(b *Block) bool {
		return sortsTarget(b) || escapesWithout(b)
	})
}

// inspectShallow visits nodes under root without descending into
// nested function literals.
func inspectShallow(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func callIdentObj(p *Pass, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.ObjectOf(id)
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func within(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos <= node.End()
}
