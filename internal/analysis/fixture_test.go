package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantItemRe extracts one expectation from a `// want` comment: a message
// regexp in quotes, optionally prefixed by the analyzer that must report it
// (`coastpure:"per-tick loop"`). One comment may carry several items.
var wantItemRe = regexp.MustCompile(`(?:([a-z]+):)?"((?:[^"\\]|\\.)*)"`)

// runFixture loads the fixture module under testdata/src/<name>, runs the
// analyzers over it, and checks the findings against the fixture's
// `// want [analyzer:]"regexp"` comments: every finding must match a want
// on its line (name included, when the want pins one), and every want must
// be matched by at least one finding.
func runFixture(t *testing.T, name string, analyzers []*Analyzer, cfg Config) {
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

	type want struct {
		analyzer string // "" matches any analyzer
		re       *regexp.Regexp
		matched  bool
		line     int
		file     string
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
					if !ok {
						continue
					}
					items := wantItemRe.FindAllStringSubmatch(rest, -1)
					if items == nil {
						t.Fatalf("malformed want comment %q", c.Text)
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range items {
						re, err := regexp.Compile(m[2])
						if err != nil {
							t.Fatalf("bad want regexp %q: %v", m[2], err)
						}
						wants = append(wants, &want{analyzer: m[1], re: re, line: pos.Line, file: pos.Filename})
					}
				}
			}
		}
	}

	diags := Run(pkgs, analyzers, cfg)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.analyzer != "" && w.analyzer != d.Analyzer {
				continue
			}
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			name := w.analyzer
			if name == "" {
				name = "any analyzer"
			}
			t.Errorf("%s:%d: expected a finding from %s matching %q, got none", w.file, w.line, name, w.re)
		}
	}
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, "hotpathalloc", []*Analyzer{HotPathAlloc}, DefaultConfig())
}

func TestMemoContractFixture(t *testing.T) {
	runFixture(t, "memocontract", []*Analyzer{MemoContract}, DefaultConfig())
}

// TestLazyClockFixture pins the worklist engine's lazy-clock write pattern
// (PR 8): a closed-form clock advance is a clean coast replay; the
// journaling and label-repairing degradations are flagged by name by
// coastpure — the analyzer that superseded this fixture's original
// hotpathalloc+memocontract approximation — and still independently by the
// general-purpose pair.
func TestLazyClockFixture(t *testing.T) {
	runFixture(t, "lazyclock", []*Analyzer{HotPathAlloc, MemoContract, CoastPure}, DefaultConfig())
}

func TestBufferDisciplineFixture(t *testing.T) {
	runFixture(t, "bufferdiscipline", []*Analyzer{BufferDiscipline}, DefaultConfig())
}

func TestCoastPureFixture(t *testing.T) {
	runFixture(t, "coastpure", []*Analyzer{CoastPure}, DefaultConfig())
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", []*Analyzer{Determinism}, Config{
		DeterminismPaths: []string{"step"},
	})
}

func TestBitSizeAuditFixture(t *testing.T) {
	runFixture(t, "bitsizeaudit", []*Analyzer{BitSizeAudit}, DefaultConfig())
}

// TestByName pins the analyzer registry: every analyzer resolves by its
// name, unknown names resolve to nil.
func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the %s analyzer", a.Name, a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestDeterminismConfigScope pins the suffix matching of DeterminismApplies.
func TestDeterminismConfigScope(t *testing.T) {
	cfg := DefaultConfig()
	for path, want := range map[string]bool{
		"ssmst/internal/verify":  true,
		"ssmst/internal/runtime": true,
		"ssmst/internal/core":    false,
		"ssmst/cmd/mstlab":       false,
		"internal/runtime":       true,
	} {
		if got := cfg.DeterminismApplies(path); got != want {
			t.Errorf("DeterminismApplies(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestDirectiveParsing pins the annotation comment grammar.
func TestDirectiveParsing(t *testing.T) {
	for _, tc := range []struct {
		text, name, arg string
	}{
		{"//ssmst:hotpath", "hotpath", ""},
		{"//ssmst:allow determinism", "allow", "determinism"},
		{"//ssmst:allow determinism -- reason here", "allow", "determinism"},
		{"//ssmst:nobits -- cache", "nobits", ""},
		{"// ordinary comment", "", ""},
		{"//ssmst:", "", ""},
	} {
		name, arg := parseDirective(tc.text)
		if name != tc.name || arg != tc.arg {
			t.Errorf("parseDirective(%q) = (%q, %q), want (%q, %q)", tc.text, name, arg, tc.name, tc.arg)
		}
	}
	if !strings.HasPrefix(directivePrefix, "//") {
		t.Fatal("directive prefix must be a line comment")
	}
}
