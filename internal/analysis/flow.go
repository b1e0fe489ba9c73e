package analysis

import (
	"go/ast"
	"go/types"
)

// Flow layer — the lightweight intra-procedural dataflow and intra-package
// callgraph machinery the flow-aware analyzers (bufferdiscipline,
// coastpure) share, and which bitsizeaudit's bounded callee
// expansion is built on. Everything here is derived from one type-checked
// Pass; nothing crosses package boundaries (cross-package calls resolve to
// no declaration and simply end the walk, matching the per-package
// enforcement scope the other analyzers already use for tracked fields).

// funcIndex maps every function and method declared in the package to its
// declaration, keyed by the types object, so call sites resolve to bodies.
func (p *Pass) funcIndex() map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if fo, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					out[fo] = fn
				}
			}
		}
	}
	return out
}

// calleeOf resolves a call expression to the invoked function object
// (package function, method, or interface method), nil for builtins,
// conversions and indirect calls through function values.
func (p *Pass) calleeOf(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...) / pkg.F[T](...)
		obj = p.instantiatedObj(fun.X)
	case *ast.IndexListExpr:
		obj = p.instantiatedObj(fun.X)
	}
	fo, _ := obj.(*types.Func)
	return fo
}

// instantiatedObj resolves the function expression under an explicit generic
// instantiation (a plain name or a qualified pkg.Name).
func (p *Pass) instantiatedObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[x.Sel]
	}
	return nil
}

// reachableFrom computes the intra-package call closure of the given roots:
// every declared function transitively called from a root body. Interface
// and cross-package calls end the walk at the boundary; the closure is what
// this package can be held to.
func (p *Pass) reachableFrom(roots []*ast.FuncDecl, funcDecls map[*types.Func]*ast.FuncDecl) map[*ast.FuncDecl]bool {
	seen := map[*ast.FuncDecl]bool{}
	var visit func(fn *ast.FuncDecl)
	visit = func(fn *ast.FuncDecl) {
		if fn == nil || fn.Body == nil || seen[fn] {
			return
		}
		seen[fn] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fo := p.calleeOf(call); fo != nil {
					visit(funcDecls[fo])
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// valueClass is the per-variable lattice of the buffer-discipline dataflow:
// whether a local value is derived from the frozen read snapshot.
type valueClass uint8

const (
	classNone valueClass = iota
	// classSnapshot: a pointer into the frozen read snapshot (the result of
	// View.Self/View.Neighbour, or anything reached through one).
	classSnapshot
)

// joinClass merges two classifications of the same variable, keeping the
// more dangerous one: a variable that ever held a snapshot-derived value
// stays suspect for the whole body (flow-insensitive fixpoint).
func joinClass(a, b valueClass) valueClass {
	if b > a {
		return b
	}
	return a
}

// classify runs the flow-insensitive fixpoint over one function body:
// variables are classified by the calls their values derive from
// (View.Self/View.Neighbour) and the classification propagates through
// assignments, range statements, field selection and indexing until
// stable.
func (p *Pass) classify(fn *ast.FuncDecl) map[*types.Var]valueClass {
	cl := map[*types.Var]valueClass{}
	assign := func(lhs ast.Expr, c valueClass) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := p.objOf(id).(*types.Var)
		if !ok {
			return false
		}
		next := joinClass(cl[v], c)
		if next == cl[v] {
			return false
		}
		cl[v] = next
		return true
	}
	// Fixpoint: each pass can only promote variables up the finite lattice,
	// so the loop terminates; the bound is a safety net.
	for pass := 0; pass < 8; pass++ {
		changed := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
					// Tuple assignment: only the first result of a call can
					// carry a classification.
					if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
						if assign(n.Lhs[0], p.callClass(call)) {
							changed = true
						}
					}
					return true
				}
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && assign(lhs, p.classOf(n.Rhs[i], cl)) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				// Ranging over a snapshot-derived slice taints the element
				// variable; the key is a fresh index.
				if n.Value != nil && p.classOf(n.X, cl) == classSnapshot {
					if assign(n.Value, classSnapshot) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return cl
}

// objOf resolves an identifier to its object (use or definition site).
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if o, ok := p.TypesInfo.Uses[id]; ok {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// classOf computes the classification of one expression under the current
// variable classification.
func (p *Pass) classOf(e ast.Expr, cl map[*types.Var]valueClass) valueClass {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := p.objOf(e).(*types.Var); ok {
			return cl[v]
		}
	case *ast.CallExpr:
		return p.callClass(e)
	case *ast.TypeAssertExpr:
		return p.classOf(e.X, cl) // v.Self().(*SState) keeps the taint
	case *ast.SelectorExpr:
		// A field of a snapshot state is part of the snapshot.
		if p.classOf(e.X, cl) == classSnapshot {
			return classSnapshot
		}
	case *ast.IndexExpr:
		// An element of a snapshot-derived slice/array is snapshot memory.
		if p.classOf(e.X, cl) == classSnapshot {
			return classSnapshot
		}
	case *ast.StarExpr:
		return p.classOf(e.X, cl)
	case *ast.UnaryExpr:
		return p.classOf(e.X, cl)
	case *ast.BinaryExpr:
		return joinClass(p.classOf(e.X, cl), p.classOf(e.Y, cl))
	}
	return classNone
}

// callClass classifies the (single) result of a call: the View accessors
// are recognized by method name and shape.
func (p *Pass) callClass(call *ast.CallExpr) valueClass {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return classNone
	}
	switch sel.Sel.Name {
	case "Self":
		if len(call.Args) == 0 {
			return classSnapshot
		}
	case "Neighbour":
		if len(call.Args) == 1 {
			return classSnapshot
		}
	}
	return classNone
}
