package analysis

import (
	"go/ast"
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
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}

	fset := token.NewFileSet()
	total := 0
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}

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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Error("no //ssmst: directives found in the tree: the contracts are unwired")
	}
}
