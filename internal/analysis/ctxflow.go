package analysis

import "go/types"

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

// rerootRule walks static calls into ctx-less module functions. It cuts at
// ctx-aware callees, whose re-rooting is their own rule-1 finding, and at
// interface dispatch, too coarse to pin on one implementation.
var rerootRule = &reachRule{
	facts: rootSites,
	follow: func(cs CallSite, callee *FuncNode) bool {
		ctx, _ := paramKinds(callee.Fn)
		return !cs.Interface && !ctx
	},
}

// rootSites lists node's direct context.Background()/TODO() calls outside
// `go` statements.
func rootSites(_ *Module, node *FuncNode) []fact {
	var out []fact
	for _, cs := range node.Calls {
		if !cs.Concurrent && isCtxRoot(cs.Callee) {
			out = append(out, fact{shortFunc(cs.Callee), cs.Call.Pos()})
		}
	}
	return out
}

func runCtxFlow(p *Pass) {
	m := p.Module
	for _, node := range m.Graph().Ordered() {
		if node.Pkg != p.Pkg {
			continue
		}
		hasCtx, hasReq := paramKinds(node.Fn)
		if hasCtx {
			for _, f := range m.factsOf(rerootRule, node) {
				p.Reportf(f.pos, "%s receives a context.Context; thread it instead of re-rooting with context.Background/TODO", shortFunc(node.Fn))
			}
			for _, cs := range node.Calls {
				if m.reachCall(rerootRule, cs, map[*types.Func]bool{node.Fn: true}) != nil {
					p.Reportf(cs.Call.Pos(), "context dropped at call to %s: the callee takes no context and re-roots one with context.Background/TODO", shortFunc(cs.Callee))
				}
			}
			continue
		}
		if hasReq {
			for _, f := range m.factsOf(rerootRule, node) {
				p.Reportf(f.pos, "%s holds an *http.Request; derive from r.Context() instead of context.Background/TODO", shortFunc(node.Fn))
			}
		}
	}
}
