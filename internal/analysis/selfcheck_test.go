package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleOnce shares one loaded module across the tests in this file: the
// source importer type-checks the standard library from source, which is
// the dominant cost, and it only needs to happen once.
var moduleOnce = struct {
	sync.Once
	pkgs []*Package
	err  error
}{}

func loadRepo(t *testing.T) []*Package {
	t.Helper()
	moduleOnce.Do(func() {
		loader, err := NewLoader(".")
		if err != nil {
			moduleOnce.err = err
			return
		}
		moduleOnce.pkgs, moduleOnce.err = loader.LoadModule()
	})
	if moduleOnce.err != nil {
		t.Fatalf("loading repository: %v", moduleOnce.err)
	}
	return moduleOnce.pkgs
}

// TestRepositoryIsClean is the in-process twin of the CI ssmstcheck run:
// the full analyzer suite over the whole module must report nothing. A
// failure here means a contract violation landed (fix it) or an
// intentional exemption is missing its annotation (annotate it with the
// reason).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module through the source importer")
	}
	pkgs := loadRepo(t)
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range Run(pkgs, All(), DefaultConfig()) {
		t.Errorf("%s", d)
	}
}

// TestAnnotationsAreLoadBearing guards against the suite silently checking
// nothing: the repository must carry at least one //ssmst:hotpath function
// and one //ssmst:tracked field, i.e. the contracts stay wired to real
// declarations.
func TestAnnotationsAreLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module through the source importer")
	}
	pkgs := loadRepo(t)
	total := map[string]int{}
	for _, pkg := range pkgs {
		for ann, n := range countAnnotations(pkg) {
			total[ann] += n
		}
	}
	for ann, what := range map[string]string{
		AnnHotpath:   "hotpathalloc and bufferdiscipline are checking nothing",
		AnnTracked:   "memocontract's write rule is checking nothing",
		AnnShared:    "bufferdiscipline's shared-field rule is checking nothing",
		AnnCoastPure: "coastpure has no replay roots to hold pure",
	} {
		if total[ann] == 0 {
			t.Errorf("no //ssmst:%s annotations in the tree: %s", ann, what)
		}
	}
}

// TestProductionCodeHasProductionCallers keeps production code to what
// production runs, plus the references other packages' tests need. Code
// that only its own package's tests reach belongs in those tests. Two
// rules, with bench/, cmd/ and examples/ counting as production callers:
//
//   - every internal/ package is imported by some file outside itself;
//   - every exported package-level func, const and var declared under
//     internal/ is referenced by a non-test file other than its own
//     declaration, or by another package's tests.
//
// Methods, types and struct fields are out of scope. Production
// references come from the type-checked module; test references are the
// pkg.Name selectors of the parsed _test.go files.
func TestProductionCodeHasProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module through the source importer")
	}
	pkgs := loadRepo(t)
	_, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	internalPrefix := modPath + "/internal/"
	pkgName := map[string]string{}
	for _, p := range pkgs {
		pkgName[p.Path] = p.Types.Name()
	}

	imported := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				imported[ipath] = true
			}
		}
	}
	// A use inside the object's own declaration (a recursive call, a
	// constant defined from itself) does not count.
	declSpan := map[types.Object][2]token.Pos{}
	var objs []types.Object
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internalPrefix) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						obj := p.Info.Defs[d.Name]
						declSpan[obj] = [2]token.Pos{d.Pos(), d.End()}
						objs = append(objs, obj)
					}
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if name.IsExported() {
								obj := p.Info.Defs[name]
								declSpan[obj] = [2]token.Pos{spec.Pos(), spec.End()}
								objs = append(objs, obj)
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if span, ok := declSpan[obj]; ok && (id.Pos() < span[0] || id.Pos() >= span[1]) {
				used[obj] = true
			}
		}
	}

	// A package's own tests, an external _test package included, count
	// neither as an importer for rule one nor as a reference for rule two.
	testRefs := map[string]bool{} // "import/path.Name"
	eachSourceFile(t, true, func(_ *token.FileSet, rel string, f *ast.File) {
		own := path.Join(modPath, filepath.ToSlash(filepath.Dir(rel)))
		local := map[string]string{} // file-local package name -> import path
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if ipath == own {
				continue
			}
			imported[ipath] = true
			if name, ok := pkgName[ipath]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = ipath
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					testRefs[local[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	})

	var findings []string
	for _, p := range pkgs {
		if strings.HasPrefix(p.Path, internalPrefix) && !imported[p.Path] {
			findings = append(findings, fmt.Sprintf("%s: no file outside the package imports it", strings.TrimPrefix(p.Path, modPath+"/")))
		}
	}
	for _, obj := range objs {
		if used[obj] || testRefs[obj.Pkg().Path()+"."+obj.Name()] {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s.%s: no production file and no other package's test references it; move it into its tests or delete it", obj.Pkg().Name(), obj.Name()))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}
