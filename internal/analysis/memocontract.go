package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MemoContract enforces the memo-invalidation protocol from PR 3/4 (see
// internal/runtime/DESIGN.md): state types that carry verdict/bit-size
// memos implement MemoInvalidator, and every mutation of the fields those
// memos derive from must be paired with an invalidation. Two rules:
//
//  1. Clone on a memo-carrying type must drop memos: its body must call
//     InvalidateMemo (directly, on any receiver) or delegate by calling
//     Clone on another memo-carrying value (e.g. SState.Clone cloning its
//     embedded *verify.VState, whose Clone drops the memos).
//
//  2. Writes through a //ssmst:tracked field of a memo-carrying struct
//     must sit in a function that also calls InvalidateMemo, MarkChanged
//     or MarkLabelsChanged. Methods whose receiver is the memo-carrying type
//     itself are exempt (the type owns its memo coherence — CopyFrom,
//     RemapPorts, the invalidators themselves), as are functions
//     annotated //ssmst:memosafe, whose callers own the pairing (e.g.
//     verify.applyFaultKind, invalidated by ApplyFault).
//
// Tracked fields are declared where the struct is declared, so rule 2 is
// enforced within the declaring package. That matches the engine's write
// discipline: cross-package mutation goes through Engine.SetState, which
// invalidates unconditionally.
var MemoContract = &Analyzer{
	Name: "memocontract",
	Doc:  "memo-bearing state writes must pair with InvalidateMemo/MarkChanged; Clone must drop memos",
	Run:  runMemoContract,
}

const (
	invalidateMethod = "InvalidateMemo"
	markMethod       = "MarkChanged"
	// markLabelsMethod is verify.NodeView's spelling of the same signal
	// (forwarded to runtime.View.MarkChanged by every adapter).
	markLabelsMethod = "MarkLabelsChanged"
)

func runMemoContract(pass *Pass) error {
	tracked := collectFields(pass, AnnTracked)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "Clone" && memoCarrying(pass.recvType(fn)) {
				checkCloneDropsMemos(pass, fn)
			}
			checkTrackedWrites(pass, fn, tracked)
		}
	}
	return nil
}

// collectFields gathers the struct fields declared in this package that
// carry the named annotation (//ssmst:tracked, //ssmst:shared), keyed by
// their types.Var.
func collectFields(pass *Pass, ann string) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !FieldAnnotated(f, ann) {
					continue
				}
				for _, name := range f.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// memoCarrying reports whether *T (or T) has an InvalidateMemo method —
// the structural signature of a memo-bearing state type. Works across
// packages because it asks go/types, not the AST.
func memoCarrying(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == invalidateMethod {
			return true
		}
	}
	return false
}

// recvType returns the declared receiver type of a method, nil for plain
// functions.
func (p *Pass) recvType(fn *ast.FuncDecl) types.Type {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return p.typeOf(fn.Recv.List[0].Type)
}

// checkCloneDropsMemos enforces rule 1 on one Clone method.
func checkCloneDropsMemos(pass *Pass, fn *ast.FuncDecl) {
	drops := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case invalidateMethod:
			drops = true
		case "Clone":
			if memoCarrying(pass.typeOf(sel.X)) {
				drops = true // delegates memo-dropping to the inner Clone
			}
		}
		return true
	})
	if !drops {
		pass.Reportf(fn.Pos(), "Clone on memo-carrying type %s must call %s (or delegate to a memo-carrying Clone): a cloned state keeping stale memos defeats fault detection", recvName(fn), invalidateMethod)
	}
}

// checkTrackedWrites enforces rule 2 on one function.
func checkTrackedWrites(pass *Pass, fn *ast.FuncDecl, tracked map[*types.Var]bool) {
	if len(tracked) == 0 || FuncAnnotated(fn, AnnMemoSafe) {
		return
	}
	// Methods on the memo-carrying type own their memo coherence.
	if rt := pass.recvType(fn); memoCarrying(rt) {
		return
	}
	var writes []writeSite
	invalidates := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, pos := pass.trackedTarget(lhs, tracked); v != nil {
					writes = append(writes, writeSite{v, pos})
				}
			}
		case *ast.IncDecStmt:
			if v, pos := pass.trackedTarget(n.X, tracked); v != nil {
				writes = append(writes, writeSite{v, pos})
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case invalidateMethod, markMethod, markLabelsMethod:
					invalidates = true
				}
			}
		}
		return true
	})
	if invalidates {
		return
	}
	for _, w := range writes {
		pass.Reportf(w.pos, "write to tracked field %s without %s/%s in %s: memoized verdicts derived from it go stale (annotate //ssmst:memosafe if callers own the invalidation)", w.field.Name(), invalidateMethod, markMethod, fn.Name.Name)
	}
}

type writeSite struct {
	field *types.Var
	pos   token.Pos
}

// trackedTarget reports the tracked field a write expression targets: the
// LHS is a selector chain passing through a tracked field (s.L = ...,
// s.L.SP = ..., s.L.Levels[i] = ...). Address-taking and plain reads never
// reach here — only assignment/IncDec targets do.
func (p *Pass) trackedTarget(e ast.Expr, tracked map[*types.Var]bool) (*types.Var, token.Pos) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if selection, ok := p.TypesInfo.Selections[x]; ok {
				if v, ok := selection.Obj().(*types.Var); ok && tracked[v] {
					return v, x.Pos()
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, token.NoPos
		}
	}
}

// recvName renders the receiver type name of a method for messages.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return types.ExprString(t)
}
