package analysis

import (
	"go/ast"
	"go/types"
)

// WALOrder enforces append-before-apply inside WAL-owning engine types
// (core.DurableEngine): in any method of a struct that holds a *wal.Log,
// a call that mutates engine state must be dominated by a wal.Append
// lexically earlier in the same method, a group commit's closure included.
// Durability is exactly this ordering: an acknowledged mutation that was
// applied before it was logged is lost by a crash, silently.
var WALOrder = &Analyzer{
	Name: "walorder",
	Run:  runWALOrder,
}

// engineMutators are the inner-engine methods that change logical state and
// therefore need a WAL record. applyRecord is the function boot replay
// applies a record with, and a durable write stages its records with
// stageRecord and hands the staged steps to the filter with flushStaged;
// stepCount, the count-only step core.Monitor no longer has, stays listed
// for its fixture.
// Calls on the receiver itself are not audited, so a live write must go
// through the inner engine's applyRecord to stay visible.
var engineMutators = map[string]bool{
	"AddQuery": true, "RemoveQuery": true, "AddStream": true, "StepAll": true,
	"stepCount": true, "applyRecord": true, "stageRecord": true, "flushStaged": true,
}

// runWALOrder audits the methods of WAL-owning structs.
func runWALOrder(p *Pass) {
	info := p.Pkg.Info
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
			checkWALMethod(p, fd, recvName)
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

// checkWALMethod flags engine-mutator calls not dominated by an append.
func checkWALMethod(p *Pass, fd *ast.FuncDecl, recvName string) {
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
		p.Reportf(call.Pos(), "%s mutates engine state without a preceding wal.Append: append-before-apply is the durability invariant", exprKey(sel))
		return true
	})
}
