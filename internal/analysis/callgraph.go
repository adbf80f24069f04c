package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-module view the interprocedural analyzers share: the
// loaded packages plus a lazily built static call graph. RunAnalyzers builds
// one Module per invocation and hands it to every pass, so the graph (and
// the per-function summaries the analyzers memoize on it) is computed once
// no matter how many packages or analyzers run.
type Module struct {
	Pkgs []*Package

	cg *CallGraph

	// Memoized per-module facts, built lazily by the analyzers that own
	// them and shared across packages within one RunAnalyzers invocation.
	regionsBuilt bool
	critRegions  []critRegion                         // blockhold/lockorder: critical sections
	leaks        []lockLeak                           // blockhold: acquires not released on every path
	acqMemo      map[*types.Func]map[lockID]token.Pos // lockorder: transitive acquire sets
	edgesBuilt   bool
	orderEdges   []lockEdge                // lockorder: acquisition-order edges
	factMemo     map[reachKey][]fact       // reach: per-rule direct facts
	reachMemo    map[reachKey]*reachResult // reach: per-rule transitive results
}

func newModule(pkgs []*Package) *Module {
	return &Module{
		Pkgs:      pkgs,
		factMemo:  make(map[reachKey][]fact),
		reachMemo: make(map[reachKey]*reachResult),
	}
}

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m.Pkgs)
	}
	return m.cg
}

// fact is one direct occurrence, inside a function, of what a reach rule
// looks for: a blocking operation, an allocation, a re-rooted context.
type fact struct {
	desc string
	pos  token.Pos
}

// reachRule is one interprocedural rule's view of the call graph: the
// direct facts of a function, and which call edges the walk follows. Every
// rule skips calls under `go`.
type reachRule struct {
	facts  func(m *Module, node *FuncNode) []fact
	follow func(cs CallSite, callee *FuncNode) bool
}

type reachKey struct {
	rule *reachRule
	fn   *types.Func
}

// reachResult names the first fact a function can reach and the call chain
// to it.
type reachResult struct {
	desc string
	path []string
}

// factsOf returns node's direct facts under rule, in source order.
func (m *Module) factsOf(rule *reachRule, node *FuncNode) []fact {
	k := reachKey{rule, node.Fn}
	fs, ok := m.factMemo[k]
	if !ok {
		fs = rule.facts(m, node)
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].pos < fs[j].pos })
		m.factMemo[k] = fs
	}
	return fs
}

// reach resolves whether node reaches a fact of rule, directly or through
// followed calls. visiting guards recursion; a cycle contributes nothing
// beyond its members' own facts.
func (m *Module) reach(rule *reachRule, node *FuncNode, visiting map[*types.Func]bool) *reachResult {
	k := reachKey{rule, node.Fn}
	if res, ok := m.reachMemo[k]; ok {
		return res
	}
	if visiting[node.Fn] {
		return nil
	}
	visiting[node.Fn] = true
	defer delete(visiting, node.Fn)

	var res *reachResult
	if fs := m.factsOf(rule, node); len(fs) > 0 {
		res = &reachResult{desc: fs[0].desc}
	} else {
		for _, cs := range node.Calls {
			if res = m.reachCall(rule, cs, visiting); res != nil {
				break
			}
		}
	}
	m.reachMemo[k] = res
	return res
}

// reachCall is reach across one call site, with the callee prepended to the
// chain. It is nil for a call under `go`, a foreign callee, or an edge the
// rule does not follow.
func (m *Module) reachCall(rule *reachRule, cs CallSite, visiting map[*types.Func]bool) *reachResult {
	callee := m.Graph().Node(cs.Callee)
	if cs.Concurrent || callee == nil || !rule.follow(cs, callee) {
		return nil
	}
	res := m.reach(rule, callee, visiting)
	if res == nil {
		return nil
	}
	return &reachResult{desc: res.desc, path: append([]string{shortFunc(cs.Callee)}, res.path...)}
}

// CallSite is one resolved outgoing call of a function.
type CallSite struct {
	// Callee is the canonical callee object. For module functions it keys
	// into CallGraph.Funcs; for foreign (stdlib) functions it only
	// classifies.
	Callee *types.Func
	// Call is the call expression at the site.
	Call *ast.CallExpr
	// Concurrent marks sites inside a `go` statement subtree: the spawning
	// goroutine does not block on them (every reach rule skips them), and
	// they do not run under the spawner's locks in program order.
	Concurrent bool
	// Interface marks callees resolved by the interface over-approximation
	// (every in-module implementation of the called interface method).
	Interface bool
}

// FuncNode is one module function (or method) with a body.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls holds the resolved outgoing call sites in source order. Calls
	// inside nested function literals are attributed to the enclosing
	// declared function (closures are flattened), which over-approximates
	// when a stored closure never runs but keeps callback-heavy code honest.
	Calls []CallSite

	// Annotations parsed from the doc comment (see hasAnnotation).
	Hotpath     bool
	Nonblocking bool
	// NonblockingReason is the text after //nnt:nonblocking; blockhold
	// reports annotations with an empty reason.
	NonblockingPos    token.Pos
	NonblockingReason string
}

// CallGraph resolves static calls, concrete-receiver method calls, and a
// conservative over-approximation of interface method calls (restricted to
// in-module implementations) across the whole module. Calls through plain
// function values (fields, parameters, variables of func type) are not
// resolved — a deliberate unsoundness documented in DESIGN.md.
type CallGraph struct {
	Funcs map[*types.Func]*FuncNode

	ordered []*FuncNode // deterministic iteration order (by position)
}

// Ordered returns every module function sorted by source position.
func (cg *CallGraph) Ordered() []*FuncNode { return cg.ordered }

// Node returns the module function node for fn, or nil for foreign callees.
func (cg *CallGraph) Node(fn *types.Func) *FuncNode { return cg.Funcs[fn] }

// hasAnnotation reports whether the declaration's doc comment carries the
// given //nnt:<name> marker, and returns the marker's position and the text
// after it.
func hasAnnotation(fd *ast.FuncDecl, name string) (bool, token.Pos, string) {
	if fd == nil || fd.Doc == nil {
		return false, token.NoPos, ""
	}
	marker := "//nnt:" + name
	for _, c := range fd.Doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			reason := strings.TrimPrefix(c.Text, marker)
			// A nested "//" starts a trailing comment, not reason text.
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			return true, c.Pos(), strings.TrimSpace(reason)
		}
	}
	return false, token.NoPos, ""
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Funcs: make(map[*types.Func]*FuncNode)}

	// Pass 1: register every declared function/method with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				node.Hotpath, _, _ = hasAnnotation(fd, "hotpath")
				if ok, pos, reason := hasAnnotation(fd, "nonblocking"); ok {
					node.Nonblocking = true
					node.NonblockingPos = pos
					node.NonblockingReason = reason
				}
				cg.Funcs[fn] = node
				cg.ordered = append(cg.ordered, node)
			}
		}
	}
	sort.Slice(cg.ordered, func(i, j int) bool {
		return cg.ordered[i].Decl.Pos() < cg.ordered[j].Decl.Pos()
	})

	// The implementation universe for interface dispatch: every in-module
	// named non-interface type, in deterministic order.
	var impls []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			impls = append(impls, named)
		}
	}

	// Pass 2: resolve each function's outgoing calls.
	for _, node := range cg.ordered {
		node.Calls = resolveCalls(node.Pkg, node.Decl.Body, impls)
	}
	return cg
}

// resolveCalls walks one function body collecting resolved call sites in
// source order. Nested function literals are flattened into the enclosing
// function; subtrees under `go` statements are marked Concurrent.
func resolveCalls(pkg *Package, body *ast.BlockStmt, impls []*types.Named) []CallSite {
	var out []CallSite
	var walk func(n ast.Node, conc bool)
	walk = func(n ast.Node, conc bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.GoStmt:
				if !conc {
					walk(s.Call, true)
					return false
				}
			case *ast.CallExpr:
				out = append(out, resolveOne(pkg, s, impls, conc)...)
			}
			return true
		})
	}
	walk(body, false)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Call.Pos() < out[j].Call.Pos() })
	return out
}

// resolveOne resolves a single call expression to zero or more callees.
func resolveOne(pkg *Package, call *ast.CallExpr, impls []*types.Named, conc bool) []CallSite {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []CallSite{{Callee: fn, Call: call, Concurrent: conc}}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			recv := m.Type().(*types.Signature).Recv()
			if recv != nil && types.IsInterface(recv.Type()) {
				// Fan out only for module-declared interfaces. Dispatch
				// through stdlib interfaces (io.Closer, sort.Interface, ...)
				// would drag in every module type sharing the method name —
				// wal.Open closing an io.Closer is not a call into the
				// cluster — so those record just the interface method.
				if m.Pkg() != nil && strings.HasPrefix(m.Pkg().Path(), pkg.ModulePath) {
					return interfaceTargets(m, call, impls, conc)
				}
				return []CallSite{{Callee: m, Call: call, Concurrent: conc, Interface: true}}
			}
			return []CallSite{{Callee: m, Call: call, Concurrent: conc}}
		}
		// Package-qualified function: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []CallSite{{Callee: fn, Call: call, Concurrent: conc}}
		}
	}
	// Builtins, conversions, and calls through plain function values are
	// not resolved (the latter is the documented unsoundness).
	return nil
}

// interfaceTargets over-approximates a dynamic dispatch of interface method
// m: every in-module named type implementing the interface contributes its
// own method. The interface method itself is also kept as a callee so
// foreign implementations (none in practice) at least record the site.
func interfaceTargets(m *types.Func, call *ast.CallExpr, impls []*types.Named, conc bool) []CallSite {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return []CallSite{{Callee: m, Call: call, Concurrent: conc, Interface: true}}
	}
	out := []CallSite{{Callee: m, Call: call, Concurrent: conc, Interface: true}}
	for _, named := range impls {
		var target types.Type = named
		if !types.Implements(target, iface) {
			target = types.NewPointer(named)
			if !types.Implements(target, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(target, true, m.Pkg(), m.Name())
		if impl, ok := obj.(*types.Func); ok {
			out = append(out, CallSite{Callee: impl, Call: call, Concurrent: conc, Interface: true})
		}
	}
	return out
}

// shortFunc renders a function for findings: pkg.Name, (pkg.Recv).Name, or
// (*pkg.Recv).Name, with pkg shortened to its base name.
func shortFunc(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		star := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			star = "*"
		}
		recvName := types.TypeString(recv, func(p *types.Package) string { return "" })
		recvName = strings.TrimPrefix(recvName, ".")
		if pkgName != "" {
			return fmt.Sprintf("(%s%s.%s).%s", star, pkgName, recvName, name)
		}
		return fmt.Sprintf("(%s%s).%s", star, recvName, name)
	}
	if pkgName != "" {
		return pkgName + "." + name
	}
	return name
}

// posBrief renders a position as base-filename:line for inclusion inside
// finding messages (the full position already prefixes the finding).
func posBrief(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
