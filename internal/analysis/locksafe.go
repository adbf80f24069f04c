package analysis

import (
	"go/ast"
	"go/types"
)

// LockSafe enforces the engine's critical-section discipline:
//
//   - every Lock/RLock on a sync.Mutex/RWMutex is released on all paths,
//     either by a matching defer or by a matching unlock in the same
//     statement list with no way to return in between;
//   - no blocking I/O (os, net, net/http, time.Sleep, *os.File methods,
//     *wal.Log appends/fsyncs) runs while a hot-path reader-writer lock is
//     held — RWMutexes guard the engine's concurrent read paths, and an
//     fsync under one stalls every reader.
//
// Copied locks are go vet's copylocks check, so this analyzer leaves them
// alone.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Run:  runLockSafe,
}

// lockCall classifies one mutex method call.
type lockCall struct {
	call    *ast.CallExpr
	key     string // rendered receiver expression, e.g. "m.mu"
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock
	rw      bool   // receiver is a sync.RWMutex (a hot-path lock)
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
	isMutex := isNamed(t, "sync", "Mutex")
	isRW := isNamed(t, "sync", "RWMutex")
	if !isMutex && !isRW {
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

func runLockSafe(p *Pass) {
	for _, file := range p.Pkg.Files {
		eachFuncBody(file, func(body *ast.BlockStmt) {
			checkLockBalance(p, body)
		})
	}
}

// checkLockBalance verifies release-on-all-paths for every acquire in one
// function body, and the no-blocking-I/O rule for RWMutex regions.
func checkLockBalance(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Deferred releases anywhere in this function.
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

	stmtLists(body, func(list []ast.Stmt) {
		for i, stmt := range list {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			lc, ok := classifyLockCall(info, call)
			if !ok || !lc.acquire {
				continue
			}
			verb := "Lock"
			if lc.read {
				verb = "RLock"
			}

			if deferred[deferKey{lc.key, lc.read}] {
				// Held to function exit: for hot-path locks, audit the rest
				// of the function for blocking calls.
				if lc.rw {
					walkShallow(body, func(n ast.Node) bool {
						if n != nil && n.Pos() > stmt.End() {
							checkHotRegion(p, lc, n)
						}
						return true
					})
				}
				continue
			}

			// No defer: require a matching release later in the same
			// statement list, with no early exit in between.
			released := -1
			for j := i + 1; j < len(list); j++ {
				es2, ok := list[j].(*ast.ExprStmt)
				if !ok {
					continue
				}
				call2, ok := es2.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				lc2, ok := classifyLockCall(info, call2)
				if ok && !lc2.acquire && lc2.key == lc.key && lc2.read == lc.read {
					released = j
					break
				}
			}
			if released < 0 {
				p.Reportf(call.Pos(), "%s.%s() has no matching release: no deferred unlock and none in the same block", lc.key, verb)
				continue
			}
			for _, between := range list[i+1 : released] {
				if containsReturn(between) {
					p.Reportf(call.Pos(), "%s.%s() is not released on every path: the critical section can return before the unlock", lc.key, verb)
					break
				}
			}
			if lc.rw {
				for _, between := range list[i+1 : released] {
					walkShallow(between, func(n ast.Node) bool {
						checkHotRegion(p, lc, n)
						return true
					})
				}
			}
		}
	})
}

// checkHotRegion reports blocking calls made while an RWMutex is held.
func checkHotRegion(p *Pass, lc lockCall, n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	if desc := blockingCallDesc(p.Pkg.Info, call); desc != "" {
		p.Reportf(call.Pos(), "%s while holding hot-path lock %s: move blocking I/O outside the critical section", desc, lc.key)
	}
}

// blockingCallDesc classifies calls that block on I/O or sleeping: direct
// calls into os/net/net/http, time.Sleep, *os.File methods, and *wal.Log
// operations (appends fsync under SyncAlways).
func blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
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
	if isNamed(t, "internal/wal", "Log") {
		switch name {
		case "Append", "Sync", "Reset", "TruncateTo", "Close":
			return "calling (*wal.Log)." + name
		}
	}
	return ""
}
