package analysis

import (
	"go/ast"
	"go/types"
)

// BitSizeAudit mechanically prevents the PR 2 bug class (VState.BitSize
// silently omitting AlarmCode, under-reporting the Theorem 8.5 memory
// bound): for every struct with a BitSize method, each field must either
// be read inside that method or carry //ssmst:nobits marking it a
// simulator-side cache that does not count toward the per-node memory of
// the distributed algorithm.
//
// The check is syntactic on purpose: "read" means a selector through the
// receiver resolving to the field. Constant terms like `return 3 + ...`
// cannot be tied to the flags they count, so BitSize bodies spell each
// field out (bits.Flag(s.AskValid), s.AlarmCode.BitSize(), ...) — the
// bits helpers inline to constants, so the accounting stays free at run
// time while becoming auditable at build time.
//
// Reads are collected through same-package callees too, to a bounded call
// depth (bitSizeCallDepth): a BitSize body may delegate its width formula
// to a helper other measurements share, so the fields the formula reads
// are reads of the method for accounting purposes. The expansion is
// intra-package and declaration-based — foreign calls (bits.ForInt,
// embedded BitSizes) still count only through the selector that spells the
// field at the call site.
var BitSizeAudit = &Analyzer{
	Name: "bitsizeaudit",
	Doc:  "every persistent field of a BitSize-bearing struct must be read by BitSize (directly or through same-package helpers) or annotated //ssmst:nobits",
	Run:  runBitSizeAudit,
}

// bitSizeCallDepth bounds the callee expansion: the method body itself,
// plus helpers, plus helpers-of-helpers. Deep enough for a shared-formula
// split (BitSize → formula helper → memo helper), shallow enough that the
// audit cannot wander off into the protocol code.
const bitSizeCallDepth = 3

func runBitSizeAudit(pass *Pass) error {
	// Struct declarations of this package, keyed by their type object, so
	// the method check can reach field annotations. Callee bodies resolve
	// through the shared flow-layer index.
	structDecls := map[*types.TypeName]*ast.StructType{}
	funcDecls := pass.funcIndex()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					structDecls[tn] = st
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name != "BitSize" || fn.Recv == nil {
				continue
			}
			pass.auditBitSize(fn, structDecls, funcDecls)
		}
	}
	return nil
}

// expandBodies returns fn's body plus the bodies of same-package functions
// it calls, transitively to bitSizeCallDepth, each at most once.
func (p *Pass) expandBodies(fn *ast.FuncDecl, funcDecls map[*types.Func]*ast.FuncDecl) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	seen := map[*ast.FuncDecl]bool{}
	var visit func(f *ast.FuncDecl, depth int)
	visit = func(f *ast.FuncDecl, depth int) {
		if f == nil || f.Body == nil || seen[f] || depth > bitSizeCallDepth {
			return
		}
		seen[f] = true
		bodies = append(bodies, f.Body)
		ast.Inspect(f.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fe := call.Fun.(type) {
			case *ast.Ident:
				obj = p.TypesInfo.Uses[fe]
			case *ast.SelectorExpr:
				obj = p.TypesInfo.Uses[fe.Sel]
			}
			if fo, ok := obj.(*types.Func); ok {
				visit(funcDecls[fo], depth+1)
			}
			return true
		})
	}
	visit(fn, 1)
	return bodies
}

func (p *Pass) auditBitSize(fn *ast.FuncDecl, structDecls map[*types.TypeName]*ast.StructType, funcDecls map[*types.Func]*ast.FuncDecl) {
	rt := p.recvType(fn)
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return
	}
	st := structDecls[named.Obj()]
	if st == nil {
		return // non-struct receiver (enum BitSize helpers) or foreign type
	}
	bodies := p.expandBodies(fn, funcDecls)
	read := map[*types.Var]bool{}
	for _, body := range bodies {
		for v := range p.fieldsRead(body) {
			read[v] = true
		}
	}
	for _, field := range st.Fields.List {
		if FieldAnnotated(field, AnnNoBits) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := p.TypesInfo.Defs[name].(*types.Var)
			if !ok || read[v] {
				continue
			}
			p.Reportf(fn.Pos(), "BitSize of %s does not read field %s: the Theorem 8.5 memory accounting is incomplete (read it, or annotate the field //ssmst:nobits if it is simulator-side state)", named.Obj().Name(), name.Name)
		}
		if len(field.Names) == 0 {
			// Embedded field: require a read of the embedded name itself.
			found := false
			for _, body := range bodies {
				if t := p.typeOf(field.Type); t != nil && p.embeddedRead(body, t) {
					found = true
					break
				}
			}
			if !found {
				if t := p.typeOf(field.Type); t != nil {
					p.Reportf(fn.Pos(), "BitSize of %s does not account for embedded %s", named.Obj().Name(), types.TypeString(t, types.RelativeTo(p.Pkg)))
				}
			}
		}
	}
}

// fieldsRead collects every struct field a body touches through selectors.
func (p *Pass) fieldsRead(body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if selection, ok := p.TypesInfo.Selections[sel]; ok {
			// Record the whole promotion chain, so reads through embedded
			// structs mark the intermediate fields too. On a method
			// selection (s.helper(...)) the final index picks the method
			// out of the method set, not a struct field — drop it, keeping
			// only the embedded-field hops that led there.
			idxs := selection.Index()
			if selection.Kind() != types.FieldVal && len(idxs) > 0 {
				idxs = idxs[:len(idxs)-1]
			}
			t := selection.Recv()
			for _, idx := range idxs {
				s, ok := under(t).(*types.Struct)
				if !ok {
					if ptr, okp := under(t).(*types.Pointer); okp {
						s, ok = under(ptr.Elem()).(*types.Struct)
					}
					if !ok {
						break
					}
				}
				f := s.Field(idx)
				out[f] = true
				t = f.Type()
			}
			if v, ok := selection.Obj().(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// embeddedRead reports whether the body selects through a value of the
// embedded type (covers `s.Embedded.BitSize()` style accounting).
func (p *Pass) embeddedRead(body *ast.BlockStmt, embedded types.Type) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if t := p.typeOf(sel); t != nil && types.Identical(t, embedded) {
			found = true
		}
		return !found
	})
	return found
}
