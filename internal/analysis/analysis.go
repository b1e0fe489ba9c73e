// Package analysis is a stdlib-only static-analysis framework plus the
// ssmstcheck analyzer suite: compile-time enforcement of the engine's
// hand-maintained invariant contracts (zero-alloc hot paths, the
// MemoInvalidator invalidation protocol, deterministic stepping, complete
// BitSize accounting, double-buffer write ownership, and closed-form coast
// replay).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a type-checked Pass — but is built
// on go/ast + go/types + go/importer only, so the module keeps zero
// external dependencies. Since PR 10 the per-function AST pattern checks
// share a flow layer (flow.go): an intra-package callgraph with
// reachability closures, bounded callee expansion, and a per-function
// value-classification fixpoint that tracks which locals derive from the
// frozen read snapshot. See DESIGN.md § "Invariant
// contracts" and § "Static analysis" in internal/runtime for the contracts
// themselves.
//
// # Annotations
//
// Source code talks back to the analyzers through //ssmst: comments:
//
//	//ssmst:hotpath            (func decl)  function must not allocate
//	                                        (hotpathalloc) and is step code
//	                                        held to the double-buffer
//	                                        ownership rules
//	                                        (bufferdiscipline)
//	//ssmst:nobits             (field)      simulator-side cache, excluded
//	                                        from BitSize accounting
//	//ssmst:tracked            (field)      memo-bearing state derives from
//	                                        this field; writes must pair
//	                                        with InvalidateMemo/MarkChanged
//	//ssmst:shared             (field)      the pointee is immutable and
//	                                        shared by every copy of the
//	                                        state: hot paths may rebind the
//	                                        field but never write through
//	                                        it (bufferdiscipline)
//	//ssmst:memosafe           (func decl)  the function's callers own the
//	                                        memo invalidation pairing
//	//ssmst:coastpure          (func decl)  coast-replay root: the function
//	                                        and everything it reaches in
//	                                        the package must be a
//	                                        side-effect-free closed form
//	                                        (coastpure)
//	//ssmst:allow <analyzer> [-- reason]    suppress findings of the named
//	                                        analyzer(s, comma-separated) on
//	                                        this line (or on the line
//	                                        directly below when the comment
//	                                        stands alone)
//
// Annotations must be attached exactly as listed; the meta test in this
// package walks the real tree and rejects stray or misplaced ones.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and //ssmst:allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass) error
}

// Config tunes where the analyzers apply.
type Config struct {
	// DeterminismPaths lists import-path suffixes of the stepping packages
	// the determinism analyzer covers. Measurement and driver code
	// (internal/core, cmd/...) is exempt by not being listed.
	DeterminismPaths []string
}

// DefaultConfig is the repository configuration used by cmd/ssmstcheck and
// the self-check test.
func DefaultConfig() Config {
	return Config{
		DeterminismPaths: []string{
			"internal/runtime",
			"internal/verify",
			"internal/selfstab",
			"internal/syncmst",
			"internal/train",
		},
	}
}

// DeterminismApplies reports whether the determinism analyzer covers the
// given package import path.
func (c Config) DeterminismApplies(pkgPath string) bool {
	for _, suf := range c.DeterminismPaths {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    Config

	diags *[]Diagnostic
	allow map[string]map[int][]string // filename -> line -> allowed analyzer names
}

// Reportf records a finding at pos unless an //ssmst:allow comment for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether an allow comment for this analyzer sits on the
// finding's line or on the line directly above it (a standalone comment).
func (p *Pass) allowedAt(pos token.Position) bool {
	lines := p.allow[pos.Filename]
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range lines[l] {
			if name == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// Annotation names (the part after "//ssmst:").
const (
	AnnHotpath   = "hotpath"
	AnnNoBits    = "nobits"
	AnnTracked   = "tracked"
	AnnShared    = "shared"
	AnnMemoSafe  = "memosafe"
	AnnCoastPure = "coastpure"
	AnnAllow     = "allow"
)

// directivePrefix starts every annotation comment.
const directivePrefix = "//ssmst:"

// parseDirective splits one comment into its annotation name and argument
// ("" when the comment is not an ssmst directive). A trailing "-- reason"
// is stripped from the argument.
func parseDirective(text string) (name, arg string) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", ""
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", ""
	}
	name = fields[0]
	if len(fields) > 1 {
		arg = strings.Join(fields[1:], " ")
	}
	return name, arg
}

// hasAnnotation reports whether any comment group carries the named
// annotation.
func hasAnnotation(name string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if n, _ := parseDirective(c.Text); n == name {
				return true
			}
		}
	}
	return false
}

// FuncAnnotated reports whether a function declaration carries the named
// annotation in its doc comment.
func FuncAnnotated(fn *ast.FuncDecl, name string) bool {
	return hasAnnotation(name, fn.Doc)
}

// FieldAnnotated reports whether a struct field carries the named
// annotation in its doc or trailing line comment.
func FieldAnnotated(f *ast.Field, name string) bool {
	return hasAnnotation(name, f.Doc, f.Comment)
}

// collectAllows builds the per-line suppression table of one file set.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				name, arg := parseDirective(c.Text)
				if name != AnnAllow || arg == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					out[pos.Filename] = lines
				}
				for _, a := range strings.Split(arg, ",") {
					if a = strings.TrimSpace(a); a != "" {
						lines[pos.Line] = append(lines[pos.Line], a)
					}
				}
			}
		}
	}
	return out
}

// Run executes the analyzers over the loaded packages and returns all
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := collectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Config:    cfg,
				diags:     &diags,
				allow:     allow,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Pos:      token.Position{Filename: pkg.Path},
					Message:  "analyzer error: " + err.Error(),
				})
			}
		}
	}
	return sortDiags(diags)
}

// sortDiags orders findings by position, then analyzer, then message — the
// stable output order of a run.
func sortDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc, MemoContract, Determinism, BitSizeAudit,
		BufferDiscipline, CoastPure,
	}
}

// ByName returns the analyzer with the given name, nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
