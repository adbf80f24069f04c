package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WALOrder enforces append-before-apply inside WAL-owning engine types
// (core.DurableEngine): in any method of a struct that holds a *wal.Log,
// a call that mutates engine state must be dominated by a wal.Append — its
// own, lexically earlier, or inherited by running inside the apply closure
// of a helper (like DurableEngine.logged) that appends before invoking it.
// Durability is exactly this ordering: an acknowledged mutation that was
// applied before it was logged is lost by a crash, silently.
var WALOrder = &Analyzer{
	Name: "walorder",
	Run:  runWALOrder,
}

// engineMutators are the inner-engine methods that change logical state and
// therefore need a WAL record. stepCount is StepAll's count-only twin, the
// step the batched ingest path and replay take.
var engineMutators = map[string]bool{
	"AddQuery": true, "RemoveQuery": true, "AddStream": true, "StepAll": true,
	"stepCount": true, "replayAddQuery": true, "replayAddStream": true,
}

func runWALOrder(p *Pass) {
	info := p.Pkg.Info

	// Pass 1: find append-dominating helpers — functions that take a
	// closure and call wal.Append before invoking it (the logged() shape).
	helpers := make(map[types.Object]bool)
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fnObj := info.Defs[fd.Name]; fnObj != nil && isAppendDominatingHelper(info, fd) {
				helpers[fnObj] = true
			}
		}
	}

	// Pass 2: audit methods of WAL-owning structs.
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recvType := info.TypeOf(fd.Recv.List[0].Type)
			if !structHoldsWALLog(recvType) {
				continue
			}
			var recvName string
			if names := fd.Recv.List[0].Names; len(names) == 1 {
				recvName = names[0].Name
			}
			checkWALMethod(p, fd, recvName, helpers)
		}
	}
}

// structHoldsWALLog reports whether t (behind pointers) is a struct with a
// *wal.Log field — the signature of a durability-owning engine type.
func structHoldsWALLog(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isWALLog(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isWALLog(t types.Type) bool { return isNamed(t, "internal/wal", "Log") }

// isAppendDominatingHelper reports whether fd appends to a *wal.Log before
// calling one of its own function-typed parameters.
func isAppendDominatingHelper(info *types.Info, fd *ast.FuncDecl) bool {
	var paramObjs []types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if _, ok := field.Type.(*ast.FuncType); !ok {
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					paramObjs = append(paramObjs, obj)
				}
			}
		}
	}
	if len(paramObjs) == 0 {
		return false
	}
	appendPos, callPos := token.NoPos, token.NoPos
	walkShallow(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Append" && isWALLog(info.TypeOf(sel.X)) {
			if !appendPos.IsValid() || call.Pos() < appendPos {
				appendPos = call.Pos()
			}
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			for _, obj := range paramObjs {
				if info.Uses[id] == obj {
					if !callPos.IsValid() || call.Pos() < callPos {
						callPos = call.Pos()
					}
				}
			}
		}
		return true
	})
	return appendPos.IsValid() && callPos.IsValid() && appendPos < callPos
}

// checkWALMethod flags engine-mutator calls not dominated by an append.
func checkWALMethod(p *Pass, fd *ast.FuncDecl, recvName string, helpers map[types.Object]bool) {
	info := p.Pkg.Info

	// Direct wal.Append positions in this method.
	var appendPositions []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Append" && isWALLog(info.TypeOf(sel.X)) {
				appendPositions = append(appendPositions, call)
			}
		}
		return true
	})

	// Function literals passed to append-dominating helpers: mutator calls
	// inside them inherit the helper's append.
	coveredLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var calleeObj types.Object
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			calleeObj = info.Uses[fn]
		case *ast.SelectorExpr:
			calleeObj = info.Uses[fn.Sel]
		}
		if calleeObj == nil || !helpers[calleeObj] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				coveredLits[lit] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !engineMutators[sel.Sel.Name] {
			return true
		}
		if isWALLog(info.TypeOf(sel.X)) {
			return true // the log itself, not the engine
		}
		root := rootIdent(sel.X)
		if root == nil || root.Name != recvName || exprKey(sel.X) == recvName {
			return true // not a state mutation through the receiver's fields
		}
		// Dominated by a direct append earlier in the method?
		for _, ap := range appendPositions {
			if ap.Pos() < call.Pos() {
				return true
			}
		}
		// Inside a closure passed to an append-dominating helper?
		for lit := range coveredLits {
			if lit.Pos() <= call.Pos() && call.End() <= lit.End() {
				return true
			}
		}
		p.Reportf(call.Pos(), "%s mutates engine state without a preceding wal.Append: append-before-apply is the durability invariant", exprKey(sel))
		return true
	})
}
