package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc is the allocation gate for the per-timestamp evaluation path:
// functions annotated
//
//	//nnt:hotpath
//
// in their doc comment must not contain allocating constructs, and must not
// call unannotated module functions that do — the check is transitive over
// the static call graph. Calls from one annotated function into another are
// not re-traversed (the callee is verified on its own), so the annotation
// set forms a closed zero-alloc region whose verdicts line up with the
// testing.AllocsPerRun caps in the tier-1 tests.
//
// Flagged constructs: make, new, append, slice and map literals, &composite
// (heap-escaping pointer literals), string concatenation, string<->[]byte
// conversions, `go` statements, closures that escape (stored or returned;
// closures passed directly as call arguments are stack-allocated by Go's
// escape analysis and are scanned rather than flagged), and calls into
// known-allocating stdlib helpers (fmt, errors.New, strings/strconv
// builders, sort.Slice). Value struct literals and map writes are not
// flagged. Conservative sites are silenced with
// //lint:ignore hotalloc <reason>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Run:  runHotAlloc,
}

// allocOp is one direct allocating construct inside a function.
type allocOp struct {
	desc string
	pos  token.Pos
}

// allocInfo caches one function's direct allocations and the memo of its
// transitive result.
type allocInfo struct {
	ops       []allocOp
	reach     *reachResult
	reachDone bool
}

func (m *Module) allocInfoOf(node *FuncNode) *allocInfo {
	if m.allocMemo == nil {
		m.allocMemo = make(map[*types.Func]*allocInfo)
	}
	if ai, ok := m.allocMemo[node.Fn]; ok {
		return ai
	}
	ai := &allocInfo{}
	info := node.Pkg.Info

	// Calls into known-allocating foreign helpers.
	for _, cs := range node.Calls {
		if m.Graph().Node(cs.Callee) != nil {
			continue
		}
		if allocatingCallee(cs.Callee) {
			ai.ops = append(ai.ops, allocOp{desc: "call to " + shortFunc(cs.Callee) + " allocates", pos: cs.Call.Pos()})
		}
	}

	argLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			ai.ops = append(ai.ops, allocOp{desc: "go statement allocates a goroutine", pos: s.Pos()})
		case *ast.CallExpr:
			for _, arg := range s.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					argLits[fl] = true
				}
			}
			switch fun := ast.Unparen(s.Fun).(type) {
			case *ast.Ident:
				if b, ok := info.Uses[fun].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						ai.ops = append(ai.ops, allocOp{desc: b.Name() + " allocates", pos: s.Pos()})
					}
				}
			}
			if tv, ok := info.Types[s.Fun]; ok && tv.IsType() && len(s.Args) == 1 {
				to := tv.Type.Underlying()
				from := info.TypeOf(s.Args[0])
				if from != nil && isStringByteConv(to, from.Underlying()) {
					ai.ops = append(ai.ops, allocOp{desc: "string/[]byte conversion allocates", pos: s.Pos()})
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(s).Underlying().(type) {
			case *types.Slice:
				ai.ops = append(ai.ops, allocOp{desc: "slice literal allocates", pos: s.Pos()})
			case *types.Map:
				ai.ops = append(ai.ops, allocOp{desc: "map literal allocates", pos: s.Pos()})
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					ai.ops = append(ai.ops, allocOp{desc: "&composite literal escapes to the heap", pos: s.Pos()})
				}
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isStringType(info.TypeOf(s.X)) {
				ai.ops = append(ai.ops, allocOp{desc: "string concatenation allocates", pos: s.Pos()})
			}
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(info.TypeOf(s.Lhs[0])) {
				ai.ops = append(ai.ops, allocOp{desc: "string concatenation allocates", pos: s.Pos()})
			}
		case *ast.FuncLit:
			if !argLits[s] {
				ai.ops = append(ai.ops, allocOp{desc: "escaping closure allocates", pos: s.Pos()})
			}
		}
		return true
	})
	sortAllocOps(ai.ops)
	m.allocMemo[node.Fn] = ai
	return ai
}

func sortAllocOps(ops []allocOp) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].pos < ops[j-1].pos; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConv reports whether a conversion between to and from crosses
// the string/byte-slice (or rune-slice) boundary, which copies.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteish(from)) || (isByteish(to) && isStr(from))
}

// allocatingCallee classifies a foreign callee as known-allocating.
func allocatingCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "fmt":
		return true
	case "errors":
		return fn.Name() == "New"
	case "strings":
		switch fn.Name() {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN",
			"Fields", "ToUpper", "ToLower", "Map", "Title":
			return true
		}
	case "strconv":
		switch fn.Name() {
		case "Itoa", "Quote", "FormatInt", "FormatUint", "FormatFloat", "FormatBool":
			return true
		}
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	}
	return false
}

// allocReaches resolves whether node can reach an allocating construct
// through non-concurrent module calls, cutting at //nnt:hotpath callees
// (verified on their own).
func (m *Module) allocReaches(node *FuncNode, visiting map[*types.Func]bool) *reachResult {
	ai := m.allocInfoOf(node)
	if ai.reachDone {
		return ai.reach
	}
	if visiting[node.Fn] {
		return nil
	}
	visiting[node.Fn] = true
	defer delete(visiting, node.Fn)

	if len(ai.ops) > 0 {
		ai.reach = &reachResult{desc: ai.ops[0].desc}
		ai.reachDone = true
		return ai.reach
	}
	for _, cs := range node.Calls {
		if cs.Concurrent {
			continue
		}
		callee := m.Graph().Node(cs.Callee)
		if callee == nil || callee.Hotpath {
			continue
		}
		if r := m.allocReaches(callee, visiting); r != nil {
			ai.reach = &reachResult{
				desc: r.desc,
				path: append([]string{shortFunc(cs.Callee)}, r.path...),
			}
			ai.reachDone = true
			return ai.reach
		}
	}
	ai.reachDone = true
	return nil
}

func runHotAlloc(p *Pass) {
	m := p.Module
	for _, node := range m.Graph().Ordered() {
		if node.Pkg != p.Pkg || !node.Hotpath {
			continue
		}
		ai := m.allocInfoOf(node)
		for _, op := range ai.ops {
			p.Reportf(op.pos, "%s in //nnt:hotpath function %s", op.desc, shortFunc(node.Fn))
		}
		reported := make(map[token.Pos]bool)
		for _, cs := range node.Calls {
			pos := cs.Call.Pos()
			if cs.Concurrent || reported[pos] {
				continue
			}
			callee := m.Graph().Node(cs.Callee)
			if callee == nil || callee.Hotpath {
				continue
			}
			if r := m.allocReaches(callee, map[*types.Func]bool{node.Fn: true}); r != nil {
				chain := append([]string{shortFunc(cs.Callee)}, r.path...)
				p.Reportf(pos, "//nnt:hotpath function %s calls %s which allocates: %s (%s)",
					shortFunc(node.Fn), shortFunc(cs.Callee), strings.Join(chain, " -> "), r.desc)
				reported[pos] = true
			}
		}
	}
}
