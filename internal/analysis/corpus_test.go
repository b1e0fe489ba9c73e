package analysis

import (
	"fmt"
	"path/filepath"
	"testing"
)

// loadFixture loads the fixture module under testdata/src/<name>.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkgs
}

// TestSeededBugCorpus runs the FULL analyzer suite over the seeded-bug
// corpus — one package per historical (or historically-plausible) bug —
// and pins the exact golden diagnostics: analyzer name and position. Where
// the fixture tests check each analyzer in isolation against regexps, this
// is the end-to-end regression net: a rule that silently stops firing, or
// an analyzer that starts misfiring on its neighbours' seeded bugs, shifts
// this list.
func TestSeededBugCorpus(t *testing.T) {
	pkgs := loadFixture(t, "corpus")
	golden := []string{
		// PR 2: BitSize omitting AlarmCode under-reports Theorem 8.5.
		"alarmcode/alarmcode.go:22: bitsizeaudit",
		// Journaling coast-advance: the O(k) loop and its trace.
		"journal/journal.go:16: coastpure",
		"journal/journal.go:17: coastpure",
	}
	var got []string
	for _, d := range Run(pkgs, All(), DefaultConfig()) {
		rel := filepath.ToSlash(d.Pos.Filename)
		if i := len(rel) - 1; i >= 0 {
			rel = filepath.Base(filepath.Dir(rel)) + "/" + filepath.Base(rel)
		}
		got = append(got, fmt.Sprintf("%s:%d: %s", rel, d.Pos.Line, d.Analyzer))
	}
	if len(got) != len(golden) {
		t.Errorf("corpus produced %d findings, want %d", len(got), len(golden))
	}
	for i := 0; i < len(golden) || i < len(got); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing golden finding: %s", golden[i])
		case i >= len(golden):
			t.Errorf("unexpected finding: %s", got[i])
		case got[i] != golden[i]:
			t.Errorf("finding %d: got %s, want %s", i, got[i], golden[i])
		}
	}
}

// TestEveryAnalyzerHasFiringFixture guards the suite against silent decay:
// every analyzer registered in All() must produce at least one finding
// somewhere across the fixture modules. An analyzer nothing can trip is an
// analyzer whose rules have drifted off the code shapes they were written
// for.
func TestEveryAnalyzerHasFiringFixture(t *testing.T) {
	fixtures := map[string]Config{
		"hotpathalloc":     DefaultConfig(),
		"memocontract":     DefaultConfig(),
		"determinism":      {DeterminismPaths: []string{"step"}},
		"bitsizeaudit":     DefaultConfig(),
		"bufferdiscipline": DefaultConfig(),
		"lazyclock":        DefaultConfig(),
		"coastpure":        DefaultConfig(),
		"corpus":           DefaultConfig(),
	}
	fired := map[string]bool{}
	for name, cfg := range fixtures {
		for _, d := range Run(loadFixture(t, name), All(), cfg) {
			fired[d.Analyzer] = true
		}
	}
	for _, a := range All() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s fires on no fixture: its rules are checking shapes that no longer exist", a.Name)
		}
	}
}
