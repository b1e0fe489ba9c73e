package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the zero-allocation contract on functions annotated
// //ssmst:hotpath: the steady-state round loop (engine step dispatch,
// verifier/train/SYNC_MST step cores, the CopyFrom family, alarm polling)
// must not allocate. The dynamic gate TestDetectionPipelineAllocFree proves
// the property end to end at runtime; this analyzer turns the individual
// allocating constructs into build-time findings with positions:
//
//   - make, new, map/slice composite literals, &composite{...}
//   - growing append (any append that is not the self-append idiom
//     `x = append(x, ...)` reusing x's backing array)
//   - map operations (writes, delete, iteration)
//   - interface boxing of non-pointer values (assignments and call
//     arguments where a concrete value type meets an interface parameter)
//   - escaping closures (func literals stored into fields or passed to
//     calls; locally bound or immediately invoked literals are allowed,
//     matching the compiler's escape analysis)
//   - string conversions ([]byte <-> string), fmt calls, go and defer
//
// The analyzer checks constructs, not callees: a hot function may call
// helpers that are not annotated, and the runtime gate remains the
// end-to-end backstop. Cold fallback lines inside a hot function (e.g. the
// nil-scratch branch of a Machine.Step) carry //ssmst:allow hotpathalloc
// with a reason.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions annotated //ssmst:hotpath must contain no allocating constructs",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !FuncAnnotated(fn, AnnHotpath) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

// checkHotFunc walks one annotated function body with parent links.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	var stack []ast.Node
	parent := func() ast.Node {
		if len(stack) < 2 {
			return nil
		}
		return stack[len(stack)-2]
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, parent())
		case *ast.CompositeLit:
			checkHotComposite(pass, n, parent())
		case *ast.FuncLit:
			if escapingFuncLit(n, parent()) {
				pass.Reportf(n.Pos(), "escaping func literal in hot path (closures stored or passed allocate)")
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path allocates a goroutine")
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path")
		case *ast.RangeStmt:
			if isMap(pass.typeOf(n.X)) {
				pass.Reportf(n.Pos(), "map iteration in hot path (allocates an iterator and is nondeterministic)")
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, n)
		case *ast.IndexExpr:
			if isMap(pass.typeOf(n.X)) {
				pass.Reportf(n.Pos(), "map access in hot path")
			}
		}
		return true
	})
}

// checkHotCall flags allocating call forms.
func checkHotCall(pass *Pass, call *ast.CallExpr, parent ast.Node) {
	// Conversions: flag []byte(string) / string([]byte) / fmt-bound calls.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, pass.typeOf(call.Args[0])
			if allocatingConversion(to, from) {
				pass.Reportf(call.Pos(), "string/byte-slice conversion in hot path allocates")
			}
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch pass.builtinName(fun) {
		case "make":
			pass.Reportf(call.Pos(), "make in hot path allocates")
			return
		case "new":
			pass.Reportf(call.Pos(), "new in hot path allocates")
			return
		case "append":
			if !selfAppend(pass, call, parent) {
				pass.Reportf(call.Pos(), "append in hot path must be the self-append idiom x = append(x, ...) over a recycled buffer")
			}
			return
		case "delete":
			pass.Reportf(call.Pos(), "map delete in hot path")
			return
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hot path allocates", fun.Sel.Name)
			return
		}
	}
	checkBoxedArgs(pass, call)
}

// checkBoxedArgs flags call arguments where a concrete non-pointer value is
// boxed into an interface parameter.
func checkBoxedArgs(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.typeOf(call.Fun).(*types.Signature)
	if ok && sig == nil {
		return
	}
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // x... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pt, pass.typeOf(arg)) {
			pass.Reportf(arg.Pos(), "interface boxing of non-pointer value in hot path (arg %d of %s)", i+1, types.TypeString(pt, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkHotAssign flags interface boxing through assignments.
func checkHotAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value forms carry their types through unchanged
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if as.Tok == token.DEFINE {
			continue // new variable adopts the RHS type, no conversion
		}
		lt = pass.typeOf(lhs)
		if boxes(lt, pass.typeOf(as.Rhs[i])) {
			pass.Reportf(as.Rhs[i].Pos(), "interface boxing of non-pointer value in hot path assignment")
		}
	}
}

// checkHotComposite flags composite literals that allocate: slice and map
// literals, and literals whose address is taken. Plain value literals
// (struct resets like s.Want = train.Want{}, array literals) compile to
// stores into existing memory and are allowed.
func checkHotComposite(pass *Pass, lit *ast.CompositeLit, parent ast.Node) {
	switch under(pass.typeOf(lit)).(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in hot path allocates")
		return
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in hot path allocates")
		return
	}
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		pass.Reportf(lit.Pos(), "&composite literal in hot path is a heap allocation candidate")
	}
}

// selfAppend reports whether the append call is the recycled-buffer idiom:
// the result is assigned back to the expression being appended to
// (optionally resliced, x = append(x[:0], ...)).
func selfAppend(pass *Pass, call *ast.CallExpr, parent ast.Node) bool {
	as, ok := parent.(*ast.AssignStmt)
	if !ok || len(call.Args) == 0 {
		return false
	}
	dst := call.Args[0]
	if sl, ok := dst.(*ast.SliceExpr); ok {
		dst = sl.X
	}
	for i, rhs := range as.Rhs {
		if rhs == call && i < len(as.Lhs) {
			return exprString(as.Lhs[i]) == exprString(dst)
		}
	}
	return false
}

// escapingFuncLit reports whether a func literal is in a position that
// forces a heap closure: stored into a field/index or passed as a call
// argument. Immediately invoked literals and literals bound to a local
// identifier stay on the stack under the compiler's escape analysis.
func escapingFuncLit(lit *ast.FuncLit, parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.CallExpr:
		return p.Fun != lit // IIFE is fine; closure as argument escapes
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && i < len(p.Lhs) {
				_, isIdent := p.Lhs[i].(*ast.Ident)
				return !isIdent
			}
		}
		return true
	case *ast.ValueSpec:
		return false // var f = func(){...} — local binding
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	}
	return false
}

// --- shared type helpers ---

func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// builtinName returns the name of the builtin the identifier denotes, ""
// otherwise (shadowed identifiers do not count).
func (p *Pass) builtinName(id *ast.Ident) string {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		if b, ok := obj.(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isMap(t types.Type) bool {
	_, ok := under(t).(*types.Map)
	return ok
}

// boxes reports whether assigning a value of type from to a location of
// type to boxes a non-pointer concrete value into an interface.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, ok := under(to).(*types.Interface); !ok {
		return false
	}
	switch under(from).(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return false // interface-to-interface and pointer-shaped values do not copy
	case *types.Basic:
		if from == types.Typ[types.UntypedNil] {
			return false
		}
	}
	return true
}

// allocatingConversion reports string<->[]byte/[]rune conversions.
func allocatingConversion(to, from types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := under(t).(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := under(t).(*types.Slice)
		if !ok {
			return false
		}
		b, ok := under(s.Elem()).(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(to) && isByteish(from)) || (isByteish(to) && isString(from))
}

// exprString renders a simple selector/ident/index chain for textual
// comparison (self-append detection). Unknown forms render uniquely by
// position so they never compare equal.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return fmt_unique(e)
}

func fmt_unique(e ast.Expr) string {
	return "?" + types.ExprString(e)
}
