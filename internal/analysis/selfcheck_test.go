package analysis

import (
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
