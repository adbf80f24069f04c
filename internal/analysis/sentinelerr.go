package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SentinelErr enforces errors.Is for sentinel comparisons: the engine wraps
// its sentinels (core.ErrUnknownStream, core.ErrUnknownQuery, ...) with %w, so a
// direct ==/!= against the sentinel silently stops matching the moment a
// caller adds context. The HTTP status mapping and the recovery paths both
// depend on wrapped sentinels staying recognizable.
var SentinelErr = &Analyzer{
	Name: "sentinelerr",
	Run:  runSentinelErr,
}

func runSentinelErr(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if name := sentinelName(p, side); name != "" {
					p.Reportf(be.Pos(), "sentinel %s is compared with %s; use errors.Is — the engine wraps sentinels with %%w", name, be.Op)
					return true
				}
			}
			return true
		})
	}
}

// sentinelName reports the qualified name when e refers to a module-level
// error sentinel (a package-scope var of type error named Err*/err*), or "".
func sentinelName(p *Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	v, ok := p.Pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !strings.HasPrefix(v.Pkg().Path(), p.Pkg.ModulePath) {
		return ""
	}
	name := v.Name()
	isSentinelName := strings.HasPrefix(name, "Err") ||
		(strings.HasPrefix(name, "err") && len(name) > 3)
	if !isSentinelName {
		return ""
	}
	errType := types.Universe.Lookup("error").Type()
	if !types.Identical(v.Type(), errType) {
		return ""
	}
	return v.Pkg().Name() + "." + name
}
