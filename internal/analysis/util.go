package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named type
// pkgPath.name. pkgPath may be a full import path or a module-relative
// suffix such as "internal/wal".
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// pkgIdentOf returns the package name when e is a plain package-qualifier
// ident (e.g. "os" in os.ReadFile), or "".
func pkgIdentOf(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// rootIdent peels selectors, parens, and indexing down to the leftmost
// identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// exprKey renders an expression as a stable string key (e.g. "m.mu").
func exprKey(e ast.Expr) string { return types.ExprString(e) }

// walkShallow walks n without descending into nested function literals —
// the traversal for per-function analyses.
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// eachFuncBody invokes fn for every function body under root: declarations
// and function literals, each exactly once.
func eachFuncBody(root ast.Node, fn func(body *ast.BlockStmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}
