package analysis

import (
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countAnnotations tallies the declaration-attached annotations of one
// loaded package.
func countAnnotations(p *Package) map[string]int {
	out := map[string]int{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				for _, ann := range []string{AnnHotpath, AnnMemoSafe, AnnCoastPure} {
					if FuncAnnotated(n, ann) {
						out[ann]++
					}
				}
			case *ast.Field:
				for _, ann := range []string{AnnNoBits, AnnTracked, AnnShared} {
					if FieldAnnotated(n, ann) {
						out[ann]++
					}
				}
			}
			return true
		})
	}
	return out
}

// TestAnnotationsAttachToRecognizedDeclarations walks every non-test file
// of the repository (parse only — no type checking) and verifies each
// //ssmst: directive is one the analyzers consume, attached where they
// look for it:
//
//   - hotpath, memosafe, coastpure — in a function declaration's doc
//     comment
//   - nobits, tracked, shared — on a struct field (doc or line comment)
//   - allow           — anywhere, but its argument must name known
//     analyzers (a typo like //ssmst:allow determinsm would otherwise
//     silently suppress nothing while looking intentional)
//
// A misplaced directive is worse than a missing one: it reads as
// enforced while the analyzers never see it.
func TestAnnotationsAttachToRecognizedDeclarations(t *testing.T) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}

	total := 0
	eachSourceFile(t, false, func(fset *token.FileSet, _ string, f *ast.File) {
		// Where do the analyzers look? Function doc groups and field
		// doc/line comments.
		funcDoc := map[*ast.Comment]bool{}
		fieldDoc := map[*ast.Comment]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Doc != nil {
					for _, c := range n.Doc.List {
						funcDoc[c] = true
					}
				}
			case *ast.Field:
				for _, g := range []*ast.CommentGroup{n.Doc, n.Comment} {
					if g == nil {
						continue
					}
					for _, c := range g.List {
						fieldDoc[c] = true
					}
				}
			}
			return true
		})

		for _, g := range f.Comments {
			for _, c := range g.List {
				name, arg := parseDirective(c.Text)
				if name == "" {
					if strings.HasPrefix(c.Text, directivePrefix) {
						t.Errorf("%s: empty //ssmst: directive", fset.Position(c.Pos()))
					}
					continue
				}
				total++
				pos := fset.Position(c.Pos())
				switch name {
				case AnnHotpath, AnnMemoSafe, AnnCoastPure:
					if !funcDoc[c] {
						t.Errorf("%s: //ssmst:%s must sit in a function declaration's doc comment; the analyzers do not see it here", pos, name)
					}
				case AnnNoBits, AnnTracked, AnnShared:
					if !fieldDoc[c] {
						t.Errorf("%s: //ssmst:%s must sit on a struct field; the analyzers do not see it here", pos, name)
					}
				case AnnAllow:
					if arg == "" {
						t.Errorf("%s: //ssmst:allow needs an analyzer name", pos)
						continue
					}
					for _, a := range strings.Split(arg, ",") {
						if a = strings.TrimSpace(a); a != "" && !known[a] {
							t.Errorf("%s: //ssmst:allow names unknown analyzer %q (known: hotpathalloc, memocontract, determinism, bitsizeaudit, bufferdiscipline, coastpure)", pos, a)
						}
					}
				default:
					t.Errorf("%s: unknown directive //ssmst:%s", pos, name)
				}
			}
		}
	})
	if total == 0 {
		t.Error("no //ssmst: directives found in the tree: the contracts are unwired")
	}
}

// TestOnlyRaceflagIsTagGated: ssmstcheck audits one build, the default
// one. That covers every shipped shape only while no non-test file outside
// internal/raceflag (which only tests import) carries a //go:build line. A
// new tag-gated file must bring per-tag audits back on purpose.
func TestOnlyRaceflagIsTagGated(t *testing.T) {
	eachSourceFile(t, false, func(fset *token.FileSet, rel string, f *ast.File) {
		if filepath.Dir(rel) == filepath.Join("internal", "raceflag") {
			return
		}
		for _, cg := range f.Comments {
			if cg.Pos() > f.Package {
				break
			}
			for _, c := range cg.List {
				if constraint.IsGoBuild(c.Text) {
					t.Errorf("%s: %s — ssmstcheck audits only the default build", fset.Position(c.Pos()), c.Text)
				}
			}
		}
	})
}

// eachSourceFile parses (without type checking) every non-test Go file of
// the repository, or with tests set every _test.go file, skipping the
// directories the loader skips, and hands each to visit with its path
// relative to the module root.
func eachSourceFile(t *testing.T, tests bool, visit func(fset *token.FileSet, rel string, f *ast.File)) {
	t.Helper()
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		visit(fset, rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
