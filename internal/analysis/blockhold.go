package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BlockHold is the interprocedural extension of locksafe's no-blocking-I/O
// rule: no call path starting inside a critical section — any sync.Mutex or
// sync.RWMutex held — may reach a blocking operation. Blocking operations
// are network I/O (anything under net/, including net/http), time.Sleep,
// channel sends/receives/selects-without-default, (*sync.WaitGroup).Wait,
// and the waiting (*exec.Cmd) methods. Deliberately excluded: file I/O and
// *wal.Log operations — the WAL fsyncs under the engine's commit mutex by
// design (locksafe still forbids them under hot-path RWMutexes).
//
// Call paths follow the module call graph: static calls, concrete-receiver
// method calls, and interface calls over-approximated by every in-module
// implementation. Calls launched with `go` do not block the spawner and are
// skipped. A function that blocks only on provably bounded local work can
// be exempted at the callee with a reviewed
//
//	//nnt:nonblocking <reason>
//
// annotation in its doc comment (the reason is mandatory), which cuts the
// traversal for every caller at once; a single conservative call site is
// silenced in place with //lint:ignore blockhold <reason> as usual.
var BlockHold = &Analyzer{
	Name: "blockhold",
	Run:  runBlockHold,
}

// critRegion is one critical section: lock lc held over the source span
// (start, end) inside node. Spans are positional — for a deferred release
// the span runs to the end of the function body, otherwise to the matching
// release in the same statement list (locksafe separately enforces that one
// of the two exists).
type critRegion struct {
	node  *FuncNode
	lc    lockCall
	start token.Pos
	end   token.Pos
}

// regions computes every critical section in the module once.
func (m *Module) regions() []critRegion {
	if m.regionsBuilt {
		return m.critRegions
	}
	m.regionsBuilt = true
	for _, node := range m.Graph().Ordered() {
		info := node.Pkg.Info
		// Each function scope (the declaration and every nested literal)
		// matches defers against acquires within the same scope only, like
		// locksafe.
		scopes := []*ast.BlockStmt{node.Decl.Body}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				scopes = append(scopes, fl.Body)
			}
			return true
		})
		for _, body := range scopes {
			type deferKey struct {
				key  string
				read bool
			}
			deferred := make(map[deferKey]bool)
			walkShallow(body, func(n ast.Node) bool {
				if ds, ok := n.(*ast.DeferStmt); ok {
					if lc, ok := classifyLockCall(info, ds.Call); ok && !lc.acquire {
						deferred[deferKey{lc.key, lc.read}] = true
					}
				}
				return true
			})
			node := node // capture for closure below
			stmtListsShallow(body, func(list []ast.Stmt) {
				for i, stmt := range list {
					lc, ok := acquireAt(info, stmt)
					if !ok || !lc.acquire {
						continue
					}
					// An inline release later in the same list bounds the
					// region even when a deferred release of the same lock
					// exists elsewhere (Lock/Unlock/.../Lock/defer Unlock):
					// the defer belongs to the later acquire.
					inline := false
					for j := i + 1; j < len(list); j++ {
						lc2, ok := acquireAt(info, list[j])
						if ok && !lc2.acquire && lc2.key == lc.key && lc2.read == lc.read {
							m.critRegions = append(m.critRegions, critRegion{node: node, lc: lc, start: stmt.End(), end: list[j].Pos()})
							inline = true
							break
						}
					}
					if !inline && deferred[deferKey{lc.key, lc.read}] {
						m.critRegions = append(m.critRegions, critRegion{node: node, lc: lc, start: stmt.End(), end: body.End()})
					}
				}
			})
		}
	}
	return m.critRegions
}

// acquireAt classifies a statement that is exactly one mutex method call.
// Unlike plain classifyLockCall it also answers for releases (acquire is
// false then), so region matching can find the unlock.
func acquireAt(info *types.Info, stmt ast.Stmt) (lockCall, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return lockCall{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	return classifyLockCall(info, call)
}

// stmtListsShallow is stmtLists restricted to one function scope: nested
// function literals have their own scope and are processed separately.
func stmtListsShallow(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	walkShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			fn(s.List)
		case *ast.CaseClause:
			fn(s.Body)
		case *ast.CommClause:
			fn(s.Body)
		}
		return true
	})
}

// blockOp is one direct blocking operation inside a function.
type blockOp struct {
	desc       string
	pos        token.Pos
	concurrent bool
}

// blockInfo caches one function's direct blocking operations and the memo
// of its transitive reachability result.
type blockInfo struct {
	ops       []blockOp
	reach     *reachResult
	reachDone bool
}

// reachResult names the first blocking operation a function can reach and
// the call chain to it.
type reachResult struct {
	desc string
	path []string
}

func (m *Module) blockInfoOf(node *FuncNode) *blockInfo {
	if m.blockMemo == nil {
		m.blockMemo = make(map[*types.Func]*blockInfo)
	}
	if bi, ok := m.blockMemo[node.Fn]; ok {
		return bi
	}
	bi := &blockInfo{}
	info := node.Pkg.Info
	// Blocking external callees become ops at their call sites.
	for _, cs := range node.Calls {
		if m.Graph().Node(cs.Callee) != nil {
			continue
		}
		if desc := blockingCalleeDesc(cs.Callee); desc != "" {
			bi.ops = append(bi.ops, blockOp{desc: desc, pos: cs.Call.Pos(), concurrent: cs.Concurrent})
		}
	}
	// Channel constructs.
	var walk func(n ast.Node, conc bool)
	walk = func(n ast.Node, conc bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				if !conc {
					walk(s.Call, true)
					return false
				}
			case *ast.SendStmt:
				bi.ops = append(bi.ops, blockOp{desc: "channel send", pos: s.Arrow, concurrent: conc})
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					bi.ops = append(bi.ops, blockOp{desc: "channel receive", pos: s.Pos(), concurrent: conc})
				}
			case *ast.SelectStmt:
				blocking := true
				for _, clause := range s.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						blocking = false
					}
				}
				if blocking {
					bi.ops = append(bi.ops, blockOp{desc: "select with no default", pos: s.Pos(), concurrent: conc})
				}
				// Sends/receives in the comm clauses are part of the select
				// itself; only the clause bodies run as ordinary code.
				for _, clause := range s.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							walk(st, conc)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if t := info.TypeOf(s.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						bi.ops = append(bi.ops, blockOp{desc: "range over channel", pos: s.Pos(), concurrent: conc})
					}
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	sortOps(bi.ops)
	m.blockMemo[node.Fn] = bi
	return bi
}

func sortOps(ops []blockOp) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].pos < ops[j-1].pos; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}

// blockingCalleeDesc classifies a foreign (non-module) callee as blocking.
func blockingCalleeDesc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	name := fn.Name()
	switch {
	case path == "net/http":
		// Only the client side that actually hits the wire. Request
		// construction, header maps, and response-writer bookkeeping are
		// in-memory; server response writes land in the kernel socket
		// buffer for the small JSON bodies this module produces.
		switch recvNamed(fn) {
		case "": // package-level http.Get etc.
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "calling " + shortFunc(fn) + " (network I/O)"
			}
		case "Client":
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head", "CloseIdleConnections":
				return "calling " + shortFunc(fn) + " (network I/O)"
			}
		case "Transport", "RoundTripper":
			if name == "RoundTrip" {
				return "calling " + shortFunc(fn) + " (network I/O)"
			}
		}
		return ""
	case path == "net" || strings.HasPrefix(path, "net/"):
		// Pure-parsing corners of the net tree never touch the network.
		if path == "net/url" || path == "net/netip" || path == "net/mail" || path == "net/textproto" {
			return ""
		}
		if path == "net" {
			switch name {
			case "JoinHostPort", "SplitHostPort", "ParseIP", "ParseCIDR", "ParseMAC", "CIDRMask":
				return ""
			}
		}
		return "calling " + shortFunc(fn) + " (network I/O)"
	case path == "time" && name == "Sleep":
		return "calling time.Sleep"
	case path == "sync" && name == "Wait":
		if recv := recvNamed(fn); recv == "WaitGroup" {
			return "calling (*sync.WaitGroup).Wait"
		}
	case path == "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			if recvNamed(fn) == "Cmd" {
				return "calling (*exec.Cmd)." + name
			}
		}
	}
	return ""
}

// recvNamed returns the bare name of a method's receiver type, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedType(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// reaches resolves whether fn can reach a blocking operation through
// non-concurrent calls, cutting at //nnt:nonblocking annotations. visiting
// guards recursion; a cycle contributes nothing beyond its members' own
// direct operations.
func (m *Module) reaches(node *FuncNode, visiting map[*types.Func]bool) *reachResult {
	if node.Nonblocking && node.NonblockingReason != "" {
		return nil
	}
	bi := m.blockInfoOf(node)
	if bi.reachDone {
		return bi.reach
	}
	if visiting[node.Fn] {
		return nil
	}
	visiting[node.Fn] = true
	defer delete(visiting, node.Fn)

	for _, op := range bi.ops {
		if !op.concurrent {
			bi.reach = &reachResult{desc: op.desc}
			bi.reachDone = true
			return bi.reach
		}
	}
	for _, cs := range node.Calls {
		if cs.Concurrent {
			continue
		}
		callee := m.Graph().Node(cs.Callee)
		if callee == nil {
			continue // foreign: blocking foreigners are already ops
		}
		if r := m.reaches(callee, visiting); r != nil {
			bi.reach = &reachResult{
				desc: r.desc,
				path: append([]string{shortFunc(cs.Callee)}, r.path...),
			}
			bi.reachDone = true
			return bi.reach
		}
	}
	bi.reachDone = true
	return nil
}

func runBlockHold(p *Pass) {
	m := p.Module

	// Bare //nnt:nonblocking annotations lose their exemption and are
	// themselves findings, mirroring reason-less //lint:ignore comments.
	for _, node := range m.Graph().Ordered() {
		if node.Pkg == p.Pkg && node.Nonblocking && node.NonblockingReason == "" {
			p.Reportf(node.NonblockingPos, "nnt:nonblocking needs a reason: //nnt:nonblocking <reason>")
		}
	}

	// Overlapping regions of the same lock (e.g. acquires on two branches,
	// both deferred-released) must not report one operation twice.
	type repKey struct {
		pos  token.Pos
		held string
	}
	reported := make(map[repKey]bool)
	for _, r := range m.regions() {
		if r.node.Pkg != p.Pkg {
			continue
		}
		verb := "Lock"
		if r.lc.read {
			verb = "RLock"
		}
		held := r.lc.key + "." + verb
		bi := m.blockInfoOf(r.node)
		for _, op := range bi.ops {
			if !op.concurrent && op.pos > r.start && op.pos < r.end && !reported[repKey{op.pos, held}] {
				reported[repKey{op.pos, held}] = true
				p.Reportf(op.pos, "%s while holding %s(): a critical section must not block", op.desc, held)
			}
		}
		for _, cs := range r.node.Calls {
			pos := cs.Call.Pos()
			if cs.Concurrent || pos <= r.start || pos >= r.end || reported[repKey{pos, held}] {
				continue
			}
			callee := m.Graph().Node(cs.Callee)
			if callee == nil {
				continue
			}
			if res := m.reaches(callee, map[*types.Func]bool{r.node.Fn: true}); res != nil {
				chain := append([]string{shortFunc(cs.Callee)}, res.path...)
				p.Reportf(pos, "call to %s while holding %s() may block: %s reaches %s",
					shortFunc(cs.Callee), held, strings.Join(chain, " -> "), res.desc)
				reported[repKey{pos, held}] = true
			}
		}
	}
}
