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

// allocRule walks into every module callee except //nnt:hotpath ones,
// which are verified on their own.
var allocRule = &reachRule{
	facts:  allocOps,
	follow: func(_ CallSite, callee *FuncNode) bool { return !callee.Hotpath },
}

// allocOps lists node's direct allocating constructs.
func allocOps(m *Module, node *FuncNode) []fact {
	var ops []fact
	info := node.Pkg.Info

	// Calls into known-allocating foreign helpers.
	for _, cs := range node.Calls {
		if m.Graph().Node(cs.Callee) == nil && allocatingCallee(cs.Callee) {
			ops = append(ops, fact{"call to " + shortFunc(cs.Callee) + " allocates", cs.Call.Pos()})
		}
	}

	argLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			ops = append(ops, fact{"go statement allocates a goroutine", s.Pos()})
		case *ast.CallExpr:
			for _, arg := range s.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					argLits[fl] = true
				}
			}
			if fun, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[fun].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						ops = append(ops, fact{b.Name() + " allocates", s.Pos()})
					}
				}
			}
			if tv, ok := info.Types[s.Fun]; ok && tv.IsType() && len(s.Args) == 1 {
				to := tv.Type.Underlying()
				from := info.TypeOf(s.Args[0])
				if from != nil && isStringByteConv(to, from.Underlying()) {
					ops = append(ops, fact{"string/[]byte conversion allocates", s.Pos()})
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(s).Underlying().(type) {
			case *types.Slice:
				ops = append(ops, fact{"slice literal allocates", s.Pos()})
			case *types.Map:
				ops = append(ops, fact{"map literal allocates", s.Pos()})
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					ops = append(ops, fact{"&composite literal escapes to the heap", s.Pos()})
				}
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isStringType(info.TypeOf(s.X)) {
				ops = append(ops, fact{"string concatenation allocates", s.Pos()})
			}
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(info.TypeOf(s.Lhs[0])) {
				ops = append(ops, fact{"string concatenation allocates", s.Pos()})
			}
		case *ast.FuncLit:
			if !argLits[s] {
				ops = append(ops, fact{"escaping closure allocates", s.Pos()})
			}
		}
		return true
	})
	return ops
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

func runHotAlloc(p *Pass) {
	m := p.Module
	for _, node := range m.Graph().Ordered() {
		if node.Pkg != p.Pkg || !node.Hotpath {
			continue
		}
		for _, op := range m.factsOf(allocRule, node) {
			p.Reportf(op.pos, "%s in //nnt:hotpath function %s", op.desc, shortFunc(node.Fn))
		}
		reported := make(map[token.Pos]bool)
		for _, cs := range node.Calls {
			pos := cs.Call.Pos()
			if reported[pos] {
				continue
			}
			if r := m.reachCall(allocRule, cs, map[*types.Func]bool{node.Fn: true}); r != nil {
				p.Reportf(pos, "//nnt:hotpath function %s calls %s which allocates: %s (%s)",
					shortFunc(node.Fn), shortFunc(cs.Callee), strings.Join(r.path, " -> "), r.desc)
				reported[pos] = true
			}
		}
	}
}
