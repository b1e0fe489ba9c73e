package analysis

import (
	"go/ast"
	"go/types"
)

// BufferDiscipline enforces the double-buffer ownership contract on the
// engine's step code (PR 1; see internal/runtime/DESIGN.md): a round reads
// the frozen snapshot and writes only its own node. Inside functions
// annotated //ssmst:hotpath, it tracks which values come from
// View.Self/View.Neighbour results and flags every write through the read
// snapshot: assigning into a value reached from View.Self or
// View.Neighbour mutates state every concurrent step is reading.
// Neighbour reads stay free: port-indexed reads of the read buffer are the
// algorithm; this analyzer only polices writes.
//
// It also flags every write whose selector chain passes through a
// //ssmst:shared field (dst.L.SP.Dist = ...): the pointee is one immutable
// block shared by every copy of the state, so writing it in place changes
// the other buffer, the neighbours' views and the marked instance at once.
// Rebinding the field itself (dst.L = ...) is not a write through it. Like
// memocontract's tracked fields, shared fields are resolved in the
// declaring package.
var BufferDiscipline = &Analyzer{
	Name: "bufferdiscipline",
	Doc:  "hot step code must read the frozen snapshot and write only its own dst block",
	Run:  runBufferDiscipline,
}

func runBufferDiscipline(pass *Pass) error {
	shared := collectFields(pass, AnnShared)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !FuncAnnotated(fn, AnnHotpath) {
				continue
			}
			pass.checkBufferDiscipline(fn, shared)
		}
	}
	return nil
}

func (p *Pass) checkBufferDiscipline(fn *ast.FuncDecl, shared map[*types.Var]bool) {
	cl := p.classify(fn)
	checkWrite := func(lhs ast.Expr) {
		e := lhs
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				// Rebinding a local (old := v.Self()) copies a value; it never
				// mutates snapshot memory. Mutation happens one level up, at the
				// selector/index/star that reaches through it.
				return
			case *ast.SelectorExpr:
				if e != lhs {
					if sel, ok := p.TypesInfo.Selections[x]; ok {
						if v, ok := sel.Obj().(*types.Var); ok && shared[v] {
							p.Reportf(lhs.Pos(), "write through shared field %s (%s): the block is immutable and shared by every copy of the state; mutate a Clone instead", v.Name(), types.ExprString(lhs))
							return
						}
					}
				}
				// Writing a field of a snapshot value is a snapshot write even
				// before the chain roots at the variable.
				if p.classOf(x.X, cl) == classSnapshot {
					p.Reportf(lhs.Pos(), "write through the read snapshot (%s): a step writes only its own dst block", types.ExprString(x))
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if p.classOf(x.X, cl) == classSnapshot {
					p.Reportf(lhs.Pos(), "write through the read snapshot (%s): a step writes only its own dst block", types.ExprString(x))
					return
				}
				e = x.X
			case *ast.StarExpr:
				if p.classOf(x.X, cl) == classSnapshot {
					p.Reportf(lhs.Pos(), "write through the read snapshot (%s): a step writes only its own dst block", types.ExprString(x))
					return
				}
				e = x.X
			case *ast.CallExpr:
				// dst.block().field = v — keep walking through the method
				// receiver so old.block().field = v still roots at old.
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					e = sel.X
					continue
				}
				return
			default:
				return
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		}
		return true
	})
}
