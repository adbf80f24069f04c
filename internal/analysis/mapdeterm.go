package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapDeterm enforces deterministic handling of map iteration. Go randomizes
// map order, so a `for range` over a map that accumulates into a slice or
// feeds an encoder produces a different result every run — which breaks the
// property the durability layer rests on: checkpoints and WAL payloads must
// byte-identically reproduce, or kill-point recovery tests prove nothing.
// The required idiom (collect keys, sort, then emit — see
// internal/core/snapshot.go) is what this analyzer checks for: an
// order-sensitive accumulation must be followed by a sort of the
// accumulated slice in the same block.
var MapDeterm = &Analyzer{
	Name: "mapdeterm",
	Run:  runMapDeterm,
}

// encoderMethods are serialization calls whose output order is observable.
var encoderMethods = map[string]bool{
	"Encode": true, "EncodeToken": true, "Marshal": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapDeterm(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		eachFuncBody(file, func(body *ast.BlockStmt) {
			walkShallow(body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok && isMapRange(info, rs) {
					checkMapRange(p, rs, body)
				}
				return true
			})
		})
	}
}

func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body for order-sensitive sinks and,
// for slice accumulations, demands a sort later in the enclosing function.
// Nested map ranges are not descended into: the walk that found this range
// checks them on their own, so each accumulation is reported exactly once,
// at its innermost order-dependent loop.
func checkMapRange(p *Pass, rs *ast.RangeStmt, body *ast.BlockStmt) {
	info := p.Pkg.Info
	// appends maps the rendered slice expression to the append position.
	appends := make(map[string]ast.Expr)
	walkShallow(rs.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs && isMapRange(info, inner) {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for k, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					continue
				}
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
					continue
				}
				lhs := x.Lhs[k]
				key := sliceKey(lhs)
				if key != sliceKey(call.Args[0]) {
					continue // s = append(t, ...): not an accumulation of s
				}
				if declaredWithin(info, lhs, rs) {
					continue // per-iteration slice; order resets every pass
				}
				if _, seen := appends[key]; !seen {
					appends[key] = lhs
				}
			}
		case *ast.CallExpr:
			if desc := serializationSink(info, x); desc != "" {
				p.Reportf(x.Pos(), "map iteration feeds %s: serialization must not depend on map order; collect and sort keys first (see internal/core/snapshot.go)", desc)
			}
		}
		return true
	})
	for key, lhs := range appends {
		if !sortedIn(info, body, key, rs.End()) {
			p.Reportf(lhs.Pos(), "%s accumulates entries in map-iteration order with no following sort; sort it before use (see internal/core/snapshot.go)", key)
		}
	}
}

// declaredWithin reports whether e is an identifier whose declaration lies
// inside the range statement itself.
func declaredWithin(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// serializationSink classifies calls inside a map-range body whose ordering
// is durably observable: encoder/writer methods, fmt.Fprint*, and WAL
// appends.
func serializationSink(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if pkg := pkgIdentOf(info, sel.X); pkg == "fmt" && strings.HasPrefix(name, "Fprint") {
		return "fmt." + name
	}
	if isNamed(info.TypeOf(sel.X), "internal/wal", "Log") && name == "Append" {
		return "(*wal.Log).Append"
	}
	if encoderMethods[name] {
		return exprKey(sel)
	}
	return ""
}

// sortedIn reports whether the function body sorts the slice named by key
// anywhere after pos: a sort/slices package call, or any call whose name
// mentions sorting (e.g. core.SortPairs), taking the slice as an argument.
// The sort may sit outside the range's own statement list — the canonical
// nested-loop accumulation sorts once after the outermost loop.
func sortedIn(info *types.Info, body *ast.BlockStmt, key string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if call.Pos() <= pos {
			return true
		}
		sorter := false
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			pkg := pkgIdentOf(info, fn.X)
			sorter = pkg == "sort" || pkg == "slices" ||
				strings.Contains(strings.ToLower(fn.Sel.Name), "sort")
		case *ast.Ident:
			sorter = strings.Contains(strings.ToLower(fn.Name), "sort")
		}
		if !sorter {
			return true
		}
		for _, arg := range call.Args {
			if sliceKey(arg) == key {
				found = true
			}
		}
		return !found
	})
	return found
}

// sliceKey renders a slice expression as a matching key, collapsing index
// expressions to their base: per-bucket accumulations like
// adj[e[0]] = append(adj[e[0]], ...) are satisfied by a later per-bucket
// sort such as sort.Slice(adj[i], ...).
func sliceKey(e ast.Expr) string {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return exprKey(ix.X) + "[*]"
	}
	return exprKey(e)
}
