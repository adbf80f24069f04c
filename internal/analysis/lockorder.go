package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds the module-wide lock acquisition graph and fails on
// cycles — the potential ABBA deadlocks between the coordinator, worker,
// engine, and shard mutexes. Locks are identified by (declaring type,
// field): every instance of cluster.workerGroup shares one node, which is
// exactly the granularity the cluster's "never hold the group lock across
// an engine call" discipline is stated at.
//
// An edge A -> B is recorded when lock B is acquired — directly, or
// transitively through any call path in the module call graph — inside a
// critical section holding lock A. Acquisitions inside `go` statements are
// skipped (the spawner does not hold its locks in the goroutine's program
// order). Self-edges are not reported: acquiring another *instance's* lock
// of the same (type, field) is a common sharded pattern and instance
// identity is beyond static reach — a documented unsoundness.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

// lockID names one lock at type granularity: "pkg/path.Type" + field for
// struct-field mutexes, or "pkg/path" + var name for package-level ones.
type lockID struct {
	owner string
	field string
}

func (id lockID) String() string { return id.owner + "." + id.field }

// lockIdent resolves the receiver expression of a classified lock call
// (e.g. the `g.mu` of `g.mu.Lock()`) to a lockID.
func lockIdent(info *types.Info, e ast.Expr) (lockID, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		owner := info.TypeOf(x.X)
		if n := namedType(owner); n != nil && n.Obj().Pkg() != nil {
			return lockID{owner: n.Obj().Pkg().Path() + "." + n.Obj().Name(), field: x.Sel.Name}, true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() { // package-level mutex var
				return lockID{owner: v.Pkg().Path(), field: v.Name()}, true
			}
		}
	}
	return lockID{}, false
}

// acquireSites collects every classifiable lock acquisition in a function
// (including nested literals, excluding `go` subtrees) as id -> earliest
// position.
func (m *Module) acquireSites(node *FuncNode) map[lockID]token.Pos {
	info := node.Pkg.Info
	out := make(map[lockID]token.Pos)
	record := func(id lockID, pos token.Pos) {
		if old, ok := out[id]; !ok || pos < old {
			out[id] = pos
		}
	}
	var walk func(n ast.Node, conc bool)
	walk = func(n ast.Node, conc bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				if !conc {
					walk(s.Call, true)
					return false
				}
			case *ast.CallExpr:
				if conc {
					return true
				}
				if lc, ok := classifyLockCall(info, s); ok && lc.acquire {
					if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
						if id, ok := lockIdent(info, sel.X); ok {
							record(id, s.Pos())
						}
					}
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	return out
}

// transAcquires computes, for every module function, the set of locks it
// may acquire directly or through any call chain, by iterating the direct
// sets to a fixpoint over the call graph.
func (m *Module) transAcquires() map[*types.Func]map[lockID]token.Pos {
	if m.acqMemo != nil {
		return m.acqMemo
	}
	cg := m.Graph()
	acq := make(map[*types.Func]map[lockID]token.Pos, len(cg.Funcs))
	for _, node := range cg.Ordered() {
		acq[node.Fn] = m.acquireSites(node)
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Ordered() {
			mine := acq[node.Fn]
			for _, cs := range node.Calls {
				if cs.Concurrent {
					continue
				}
				for id, pos := range acq[cs.Callee] {
					if old, ok := mine[id]; !ok || pos < old {
						mine[id] = pos
						changed = true
					}
				}
			}
		}
	}
	m.acqMemo = acq
	return acq
}

// lockEdge is one "B acquired while A held" observation.
type lockEdge struct {
	from, to lockID
	fromPos  token.Pos // where A was acquired (the critical section entry)
	toPos    token.Pos // the acquisition or call site inside the section
	viaPos   token.Pos // where B is actually acquired (== toPos when direct)
	node     *FuncNode // function owning toPos
}

// lockEdges records every acquisition-order edge in the module, sorted.
func (m *Module) lockEdges() []lockEdge {
	if m.edgesBuilt {
		return m.orderEdges
	}
	m.edgesBuilt = true
	acq := m.transAcquires()
	for _, r := range m.regions() {
		info := r.node.Pkg.Info
		sel, ok := r.lc.call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		from, ok := lockIdent(info, sel.X)
		if !ok {
			continue
		}
		// Direct acquisitions inside the span.
		for id, pos := range m.acquireSites(r.node) {
			if id != from && pos > r.start && pos < r.end {
				m.orderEdges = append(m.orderEdges, lockEdge{from: from, to: id, fromPos: r.lc.call.Pos(), toPos: pos, viaPos: pos, node: r.node})
			}
		}
		// Transitive acquisitions through calls inside the span.
		for _, cs := range r.node.Calls {
			pos := cs.Call.Pos()
			if cs.Concurrent || pos <= r.start || pos >= r.end {
				continue
			}
			for id, via := range acq[cs.Callee] {
				if id != from {
					m.orderEdges = append(m.orderEdges, lockEdge{from: from, to: id, fromPos: r.lc.call.Pos(), toPos: pos, viaPos: via, node: r.node})
				}
			}
		}
	}
	sort.Slice(m.orderEdges, func(i, j int) bool {
		a, b := m.orderEdges[i], m.orderEdges[j]
		if a.from != b.from {
			return a.from.String() < b.from.String()
		}
		if a.to != b.to {
			return a.to.String() < b.to.String()
		}
		if a.toPos != b.toPos {
			return a.toPos < b.toPos
		}
		return a.fromPos < b.fromPos
	})
	return m.orderEdges
}

// cycleEdges returns the deduplicated (one per ordered lock pair) edges
// that participate in a cycle of the acquisition graph.
func (m *Module) cycleEdges() []lockEdge {
	edges := m.lockEdges()
	adj := make(map[lockID][]lockID)
	seenPair := make(map[[2]string]bool)
	for _, e := range edges {
		k := [2]string{e.from.String(), e.to.String()}
		if !seenPair[k] {
			seenPair[k] = true
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	reach := func(src, dst lockID) bool {
		seen := map[lockID]bool{src: true}
		stack := []lockID{src}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[n] {
				if next == dst {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var out []lockEdge
	reported := make(map[[2]string]bool)
	for _, e := range edges {
		k := [2]string{e.from.String(), e.to.String()}
		if reported[k] {
			continue
		}
		if reach(e.to, e.from) { // closing the loop back to `from` => cycle
			reported[k] = true
			out = append(out, e)
		}
	}
	return out
}

// counterSite finds the edge that starts the return path to -> ... -> from,
// so the report can name the reverse acquisition site.
func (m *Module) counterSite(from, to lockID) (lockEdge, bool) {
	for _, e := range m.lockEdges() {
		if e.from == to && m.pathExists(e.to, from) {
			return e, true
		}
	}
	return lockEdge{}, false
}

func (m *Module) pathExists(src, dst lockID) bool {
	if src == dst {
		return true
	}
	seen := map[lockID]bool{src: true}
	stack := []lockID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.lockEdges() {
			if e.from != n {
				continue
			}
			if e.to == dst {
				return true
			}
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return false
}

func runLockOrder(p *Pass) {
	m := p.Module
	fset := p.Pkg.Fset
	for _, e := range m.cycleEdges() {
		if e.node.Pkg != p.Pkg {
			continue
		}
		msg := "lock order cycle: " + e.to.String() + " is acquired (at " + posBrief(fset, e.viaPos) +
			") while holding " + e.from.String() + " (acquired at " + posBrief(fset, e.fromPos) + ")"
		if rev, ok := m.counterSite(e.from, e.to); ok {
			msg += ", but the reverse order " + rev.from.String() + " -> " + rev.to.String() +
				" is taken at " + posBrief(fset, rev.toPos)
		}
		p.Reportf(e.toPos, "%s", msg)
	}
}
