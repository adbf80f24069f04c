package analysis

import (
	"go/token"
	"go/types"
)

// CtxFlow enforces that contexts thread end-to-end through request and RPC
// paths instead of being re-rooted midway:
//
//  1. a function that receives a context.Context must not call
//     context.Background() or context.TODO() — it already has the caller's
//     context (detached work spawned with `go` is exempt);
//  2. an HTTP handler holding an *http.Request must derive from r.Context()
//     rather than context.Background();
//  3. a function that receives a context must not drop it at a call
//     boundary: statically calling a module function that takes no context
//     but transitively re-roots one (rule 3 follows the call graph, cutting
//     at ctx-aware callees — their own re-rooting is their own rule-1
//     finding).
//
// Functions with no context parameter (main, daemon loops, constructors)
// may freely create root contexts; that is what Background is for.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxFlow,
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n := namedType(p.Elem())
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" && n.Obj().Name() == "Request"
}

// paramKinds classifies a function's parameters (receiver excluded).
func paramKinds(fn *types.Func) (hasCtx, hasReq bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isCtxType(t) {
			hasCtx = true
		}
		if isHTTPRequestPtr(t) {
			hasReq = true
		}
	}
	return hasCtx, hasReq
}

// isCtxRoot reports whether fn is context.Background or context.TODO.
func isCtxRoot(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// rootSites returns the positions of direct, non-concurrent
// context.Background()/TODO() calls in node.
func rootSites(node *FuncNode) []token.Pos {
	var out []token.Pos
	for _, cs := range node.Calls {
		if !cs.Concurrent && isCtxRoot(cs.Callee) {
			out = append(out, cs.Call.Pos())
		}
	}
	return out
}

// rerootsContext reports whether node (which takes no context) reaches a
// context.Background/TODO call through non-concurrent static calls into
// other ctx-less module functions. Traversal cuts at ctx-aware callees and
// at interface dispatch (too coarse to pin on one implementation).
func (m *Module) rerootsContext(node *FuncNode, visiting map[*types.Func]bool) bool {
	if m.rerootMemo == nil {
		m.rerootMemo = make(map[*types.Func]int) // 0 unknown, 1 yes, 2 no
	}
	switch m.rerootMemo[node.Fn] {
	case 1:
		return true
	case 2:
		return false
	}
	if visiting[node.Fn] {
		return false
	}
	visiting[node.Fn] = true
	defer delete(visiting, node.Fn)

	if len(rootSites(node)) > 0 {
		m.rerootMemo[node.Fn] = 1
		return true
	}
	for _, cs := range node.Calls {
		if cs.Concurrent || cs.Interface {
			continue
		}
		callee := m.Graph().Node(cs.Callee)
		if callee == nil {
			continue
		}
		if ctx, _ := paramKinds(callee.Fn); ctx {
			continue
		}
		if m.rerootsContext(callee, visiting) {
			m.rerootMemo[node.Fn] = 1
			return true
		}
	}
	m.rerootMemo[node.Fn] = 2
	return false
}

func runCtxFlow(p *Pass) {
	m := p.Module
	for _, node := range m.Graph().Ordered() {
		if node.Pkg != p.Pkg {
			continue
		}
		hasCtx, hasReq := paramKinds(node.Fn)
		if hasCtx {
			for _, pos := range rootSites(node) {
				p.Reportf(pos, "%s receives a context.Context; thread it instead of re-rooting with context.Background/TODO", shortFunc(node.Fn))
			}
			for _, cs := range node.Calls {
				if cs.Concurrent || cs.Interface {
					continue
				}
				callee := m.Graph().Node(cs.Callee)
				if callee == nil {
					continue
				}
				if ctx, _ := paramKinds(callee.Fn); ctx {
					continue
				}
				if m.rerootsContext(callee, map[*types.Func]bool{node.Fn: true}) {
					p.Reportf(cs.Call.Pos(), "context dropped at call to %s: the callee takes no context and re-roots one with context.Background/TODO", shortFunc(cs.Callee))
				}
			}
			continue
		}
		if hasReq {
			for _, pos := range rootSites(node) {
				p.Reportf(pos, "%s holds an *http.Request; derive from r.Context() instead of context.Background/TODO", shortFunc(node.Fn))
			}
		}
	}
}
