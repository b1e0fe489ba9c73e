package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CoastPure enforces the closed-form replay contract from PR 8 (the coast
// regime; see internal/verify/coast.go and internal/runtime/worklist.go):
// when a worklist engine skips a quiescent node for k rounds, the machine's
// CoastAdvance must reproduce exactly what k dense steps would have done —
// as pure per-node clockwork. Functions annotated //ssmst:coastpure (the
// replay roots: CoastAdvance, coastAdvance, IdleTimerAdvance and its tick
// twin) and everything reachable from them inside the package must be
// side-effect-free closed forms:
//
//   - no per-tick loops: a for/range over the skipped rounds is the O(k)
//     iteration the closed form exists to replace, and the sweep-horizon
//     class of bugs hides exactly there;
//   - no journaling or allocation (make, new, growing append, map writes,
//     go, defer, fmt): replay happens on the quiet path that is gated to
//     zero allocations, and a materialized trace of skipped rounds is state
//     the dense reference never had;
//   - no change-tracking side effects (MarkChanged, MarkLabelsChanged,
//     InvalidateMemo): replay must be invisible to the dirty-epoch journal,
//     or skipped nodes wake their neighbourhoods and the worklist never
//     quiesces;
//   - no writes to //ssmst:tracked fields: a label "repair" inside replay
//     is a mutation the memo protocol never sees.
//
// The closure is intra-package (cross-package replay helpers carry their
// own //ssmst:coastpure root — train.IdleTimerAdvance for verify's train
// half). The one sanctioned exception shape, a cold once-per-lifetime
// materialization, carries //ssmst:allow coastpure with its reason. This
// analyzer supersedes the ad-hoc lazyclock fixture pattern of
// approximating replay purity with hotpathalloc+memocontract.
var CoastPure = &Analyzer{
	Name: "coastpure",
	Doc:  "functions reachable from //ssmst:coastpure replay roots must be side-effect-free closed forms: no per-tick loops, journaling, or change tracking",
	Run:  runCoastPure,
}

func runCoastPure(pass *Pass) error {
	funcDecls := pass.funcIndex()
	var roots []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && FuncAnnotated(fn, AnnCoastPure) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}
	tracked := collectFields(pass, AnnTracked)
	closure := pass.reachableFrom(roots, funcDecls)
	// Report in the package's stable file order, not map order.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !closure[fn] {
				continue
			}
			pass.checkCoastPure(fn, tracked)
		}
	}
	return nil
}

func (p *Pass) checkCoastPure(fn *ast.FuncDecl, tracked map[*types.Var]bool) {
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
		case *ast.ForStmt:
			p.Reportf(n.Pos(), "per-tick loop in coast replay (%s): the k-round advance must be a closed form, not iterated ticks", fn.Name.Name)
		case *ast.RangeStmt:
			p.Reportf(n.Pos(), "range loop in coast replay (%s): the k-round advance must be a closed form, not iterated ticks", fn.Name.Name)
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement in coast replay (%s)", fn.Name.Name)
		case *ast.DeferStmt:
			p.Reportf(n.Pos(), "defer in coast replay (%s)", fn.Name.Name)
		case *ast.CallExpr:
			p.checkCoastCall(fn, n, parent())
		case *ast.CompositeLit:
			switch under(p.typeOf(n)).(type) {
			case *types.Slice, *types.Map:
				p.Reportf(n.Pos(), "slice/map literal in coast replay (%s): replay must not journal", fn.Name.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(p.typeOf(idx.X)) {
					p.Reportf(lhs.Pos(), "map write in coast replay (%s)", fn.Name.Name)
				}
				if v, pos := p.trackedTarget(lhs, tracked); v != nil {
					p.reportTrackedWrite(fn, v, pos)
				}
			}
		case *ast.IncDecStmt:
			if v, pos := p.trackedTarget(n.X, tracked); v != nil {
				p.reportTrackedWrite(fn, v, pos)
			}
		}
		return true
	})
}

func (p *Pass) reportTrackedWrite(fn *ast.FuncDecl, v *types.Var, pos token.Pos) {
	p.Reportf(pos, "coast replay writes tracked field %s (%s): a label repair belongs to the full step, paired with invalidation — replay must be invisible", v.Name(), fn.Name.Name)
}

// checkCoastCall flags journaling builtins, fmt, and change-tracking calls.
func (p *Pass) checkCoastCall(fn *ast.FuncDecl, call *ast.CallExpr, parent ast.Node) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch p.builtinName(fun) {
		case "make":
			p.Reportf(call.Pos(), "make in coast replay (%s): a journal of skipped rounds is state the dense reference never had", fn.Name.Name)
		case "new":
			p.Reportf(call.Pos(), "new in coast replay (%s): replay allocates nothing", fn.Name.Name)
		case "append":
			if !selfAppend(p, call, parent) {
				p.Reportf(call.Pos(), "append in coast replay (%s): replay must not journal skipped rounds", fn.Name.Name)
			}
		case "delete":
			p.Reportf(call.Pos(), "map delete in coast replay (%s)", fn.Name.Name)
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case invalidateMethod, markMethod, markLabelsMethod:
			p.Reportf(call.Pos(), "%s in coast replay (%s): replay must be invisible to change tracking, or skipped nodes wake their neighbourhood and the worklist never quiesces", fun.Sel.Name, fn.Name.Name)
		}
		if obj, ok := p.TypesInfo.Uses[fun.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s in coast replay (%s)", fun.Sel.Name, fn.Name.Name)
		}
	}
}
