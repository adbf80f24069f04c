package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// BlockHold enforces the engine's critical-section discipline on every
// sync.Mutex and sync.RWMutex:
//
//   - every Lock/RLock is released on all paths: by the first later release
//     of the same lock in the same statement list, either deferred or inline
//     with no unreleased way to leave the function or the block in between;
//   - no call path starting inside a critical section reaches a blocking
//     operation: network I/O (anything under net/, including net/http),
//     time.Sleep, channel sends/receives/selects-without-default,
//     (*sync.WaitGroup).Wait, and the waiting (*exec.Cmd) methods;
//   - no direct call into os, net or net/http, no *os.File method, no
//     wal.FS method (the file-system seam the log and checkpoints go
//     through), no (*wal.Log) append/fsync and no time.Sleep runs while a
//     hot-path RWMutex is held. RWMutexes guard the engine's concurrent
//     read paths, and an fsync under one stalls every reader. Plain
//     mutexes may do file and WAL I/O: the WAL fsyncs under the engine's
//     commit mutex by design. This class is checked on direct calls only,
//     never through callees.
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
// silenced in place with //lint:ignore blockhold <reason> as usual. Copied
// locks are go vet's copylocks check, so this analyzer leaves them alone.
var BlockHold = &Analyzer{
	Name: "blockhold",
	Run:  runBlockHold,
}

// lockCall classifies one mutex method call.
type lockCall struct {
	call    *ast.CallExpr
	key     string // rendered receiver expression, e.g. "m.mu"
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock
	rw      bool   // receiver is a sync.RWMutex (a hot-path lock)
}

// held renders the acquire for findings, e.g. "m.mu.RLock".
func (lc lockCall) held() string {
	if lc.read {
		return lc.key + ".RLock"
	}
	return lc.key + ".Lock"
}

func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lockCall{}, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" && name != "RLock" && name != "RUnlock" {
		return lockCall{}, false
	}
	t := info.TypeOf(sel.X)
	isRW := isNamed(t, "sync", "RWMutex")
	if !isRW && !isNamed(t, "sync", "Mutex") {
		return lockCall{}, false
	}
	return lockCall{
		call:    call,
		key:     exprKey(sel.X),
		read:    name == "RLock" || name == "RUnlock",
		acquire: name == "Lock" || name == "RLock",
		rw:      isRW,
	}, true
}

// lockStmt classifies a statement that is exactly one mutex method call,
// plain or deferred.
func lockStmt(info *types.Info, stmt ast.Stmt) (lc lockCall, deferred, ok bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			lc, ok = classifyLockCall(info, call)
		}
	case *ast.DeferStmt:
		lc, ok = classifyLockCall(info, s.Call)
		deferred = true
	}
	return lc, deferred, ok
}

// critRegion is one critical section: lock lc held over the source span
// (start, end) of the function scope body. For a deferred release the span
// runs to the end of body, otherwise to the matching inline release. node
// is the enclosing declared function, nil for a function literal at package
// level.
type critRegion struct {
	pkg   *Package
	node  *FuncNode
	body  *ast.BlockStmt
	lc    lockCall
	start token.Pos
	end   token.Pos
}

// lockLeak is an acquire that is not released on every path.
type lockLeak struct {
	pkg *Package
	lc  lockCall
	why string
}

// regions scans every function scope in the module once, declarations and
// function literals alike, package-level literals included. It returns the
// critical sections and the acquires not released on every path.
func (m *Module) regions() ([]critRegion, []lockLeak) {
	if m.regionsBuilt {
		return m.critRegions, m.leaks
	}
	m.regionsBuilt = true
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var node *FuncNode
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					node = m.Graph().Node(fn)
				}
				eachFuncBody(decl, func(body *ast.BlockStmt) { m.scanScope(pkg, node, body) })
			}
		}
	}
	return m.critRegions, m.leaks
}

// scanScope pairs each acquire in one function scope with the first later
// release of the same lock in the same statement list. A deferred release
// holds the lock to the end of the scope and covers only that acquire; an
// inline one bounds the region. Either must not be preceded by an exit.
// Nested function literals are scopes of their own.
func (m *Module) scanScope(pkg *Package, node *FuncNode, body *ast.BlockStmt) {
	stmtListsShallow(body, func(list []ast.Stmt) {
		for i, stmt := range list {
			lc, deferred, ok := lockStmt(pkg.Info, stmt)
			if !ok || !lc.acquire || deferred {
				continue
			}
			r := critRegion{pkg: pkg, node: node, body: body, lc: lc, start: stmt.End()}
			for j := i + 1; j < len(list) && r.end == token.NoPos; j++ {
				rel, deferred, ok := lockStmt(pkg.Info, list[j])
				if !ok || rel.acquire || rel.key != lc.key || rel.read != lc.read {
					continue
				}
				r.end = list[j].Pos()
				if deferred {
					r.end = body.End()
				}
				if exitsHolding(pkg.Info, lc, list[i+1:j]) {
					m.leaks = append(m.leaks, lockLeak{pkg, lc, "is not released on every path: the critical section can return before the unlock"})
				}
			}
			if r.end == token.NoPos {
				m.leaks = append(m.leaks, lockLeak{pkg, lc, "has no matching release: no deferred unlock and none in the same block"})
				continue
			}
			m.critRegions = append(m.critRegions, r)
		}
	})
}

// exitsHolding reports whether the statements between an acquire and its
// release can leave the function or the block with lc still held:
// a return, a goto or a labeled break/continue (an unlabeled break stays
// inside the region) that is not preceded, in its own statement list, by an
// inline release of lc, as in `if err != nil { mu.Unlock(); return err }`.
func exitsHolding(info *types.Info, lc lockCall, between []ast.Stmt) bool {
	region := &ast.BlockStmt{List: between}
	var released [][2]token.Pos // from a release to the end of its list
	stmtListsShallow(region, func(list []ast.Stmt) {
		for _, st := range list {
			rel, deferred, ok := lockStmt(info, st)
			if ok && !deferred && !rel.acquire && rel.key == lc.key && rel.read == lc.read {
				released = append(released, [2]token.Pos{st.End(), list[len(list)-1].End()})
				return
			}
		}
	})
	exits := false
	walkShallow(region, func(n ast.Node) bool {
		exit := false
		switch x := n.(type) {
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			exit = x.Tok == token.GOTO || x.Label != nil
		}
		if exit && !slices.ContainsFunc(released, func(r [2]token.Pos) bool { return n.Pos() > r[0] && n.Pos() < r[1] }) {
			exits = true
		}
		return !exits
	})
	return exits
}

// stmtListsShallow invokes fn for every statement list of one function
// scope: blocks, case clauses, and select communication clauses. Nested
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

// blockRule walks into every module callee except those exempted with a
// reasoned //nnt:nonblocking annotation.
var blockRule = &reachRule{
	facts: blockingOps,
	follow: func(_ CallSite, callee *FuncNode) bool {
		return !callee.Nonblocking || callee.NonblockingReason == ""
	},
}

// blockingOps lists node's direct blocking operations outside `go`
// statements: calls to blocking foreign callees and channel constructs.
func blockingOps(m *Module, node *FuncNode) []fact {
	var ops []fact
	for _, cs := range node.Calls {
		if cs.Concurrent || m.Graph().Node(cs.Callee) != nil {
			continue
		}
		if desc := blockingCalleeDesc(cs.Callee); desc != "" {
			ops = append(ops, fact{desc, cs.Call.Pos()})
		}
	}
	info := node.Pkg.Info
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				return false
			case *ast.SendStmt:
				ops = append(ops, fact{"channel send", s.Arrow})
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					ops = append(ops, fact{"channel receive", s.Pos()})
				}
			case *ast.SelectStmt:
				blocking := true
				for _, clause := range s.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						blocking = false
					}
				}
				if blocking {
					ops = append(ops, fact{"select with no default", s.Pos()})
				}
				// Sends/receives in the comm clauses are part of the select
				// itself; only the clause bodies run as ordinary code.
				for _, clause := range s.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							walk(st)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if t := info.TypeOf(s.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						ops = append(ops, fact{"range over channel", s.Pos()})
					}
				}
			}
			return true
		})
	}
	walk(node.Decl.Body)
	return ops
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

// hotIODesc classifies the direct calls forbidden under a hot-path
// RWMutex: package-level os/net/net/http calls, time.Sleep, *os.File
// methods, wal.FS and wal.OSFS methods (os calls behind the seam), and
// *wal.Log operations (appends fsync under SyncAlways).
func hotIODesc(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	switch pkgIdentOf(info, sel.X) {
	case "os", "net", "net/http":
		return "calling " + exprKey(sel)
	case "time":
		if name == "Sleep" {
			return "calling time.Sleep"
		}
		return ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if isNamed(t, "os", "File") {
		return "calling (*os.File)." + name
	}
	if isNamed(t, "internal/wal", "FS") || isNamed(t, "internal/wal", "OSFS") {
		return "calling (wal.FS)." + name
	}
	if isNamed(t, "internal/wal", "Log") {
		switch name {
		case "Append", "Sync", "Reset", "TruncateTo", "Close":
			return "calling (*wal.Log)." + name
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

func runBlockHold(p *Pass) {
	m := p.Module

	// Bare //nnt:nonblocking annotations lose their exemption and are
	// themselves findings, mirroring reason-less //lint:ignore comments.
	for _, node := range m.Graph().Ordered() {
		if node.Pkg == p.Pkg && node.Nonblocking && node.NonblockingReason == "" {
			p.Reportf(node.NonblockingPos, "nnt:nonblocking needs a reason: //nnt:nonblocking <reason>")
		}
	}

	regions, leaks := m.regions()
	for _, l := range leaks {
		if l.pkg == p.Pkg {
			p.Reportf(l.lc.call.Pos(), "%s() %s", l.lc.held(), l.why)
		}
	}

	// Overlapping regions of the same lock (e.g. nested sections) and the
	// two direct classes (time.Sleep is in both) must not report one
	// operation twice.
	type repKey struct {
		pos  token.Pos
		held string
	}
	reported := make(map[repKey]bool)
	for _, r := range regions {
		if r.pkg != p.Pkg {
			continue
		}
		held := r.lc.held()
		inside := func(pos token.Pos) bool {
			return pos > r.start && pos < r.end && !reported[repKey{pos, held}]
		}
		report := func(pos token.Pos, format string, args ...any) {
			reported[repKey{pos, held}] = true
			p.Reportf(pos, format, args...)
		}
		if r.node != nil {
			for _, op := range m.factsOf(blockRule, r.node) {
				if inside(op.pos) {
					report(op.pos, "%s while holding %s(): a critical section must not block", op.desc, held)
				}
			}
			for _, cs := range r.node.Calls {
				pos := cs.Call.Pos()
				if !inside(pos) {
					continue
				}
				if res := m.reachCall(blockRule, cs, map[*types.Func]bool{r.node.Fn: true}); res != nil {
					report(pos, "call to %s while holding %s() may block: %s reaches %s",
						shortFunc(cs.Callee), held, strings.Join(res.path, " -> "), res.desc)
				}
			}
		}
		if r.lc.rw {
			walkShallow(r.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && inside(call.Pos()) {
					if desc := hotIODesc(r.pkg.Info, call); desc != "" {
						report(call.Pos(), "%s while holding hot-path lock %s(): move blocking I/O outside the critical section", desc, held)
					}
				}
				return true
			})
		}
	}
}
