// Command ssmstcheck runs the ssmst invariant analyzers (hotpathalloc,
// memocontract, determinism, bitsizeaudit, bufferdiscipline, coastpure)
// over the module and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/ssmstcheck ./...            # whole module (CI invocation)
//	go run ./cmd/ssmstcheck ./internal/verify
//	go run ./cmd/ssmstcheck -a bitsizeaudit ./...
//	go run ./cmd/ssmstcheck -json -variants race_on ./...
//
// Each variant in -variants is one build-tag configuration, loaded and
// type-checked from scratch so tag-gated files (internal/raceflag) are
// audited in every shipped shape. Diagnostics are merged across variants,
// deduplicated, and printed in a stable position order.
//
// Exit codes: 0 — clean; 1 — findings; 2 — the run itself failed (bad
// flags, load/type-check error, or an analyzer error).
//
// The driver is self-contained on the standard library (see
// internal/analysis): it is not a `go vet -vettool` plugin because the
// vet plugin protocol lives in golang.org/x/tools, and this module keeps
// zero external dependencies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ssmst/internal/analysis"
)

// variantTags maps the CI variant names onto the build tags they assert.
var variantTags = map[string][]string{
	"race_off": nil,
	"race_on":  {"race"},
}

func main() {
	var (
		only     string
		asJSON   bool
		variants string
	)
	flag.StringVar(&only, "a", "", "comma-separated analyzer names to run (default: all)")
	flag.BoolVar(&asJSON, "json", false, "emit findings as a JSON array on stdout")
	flag.StringVar(&variants, "variants", "race_off,race_on", "comma-separated build-tag variants to audit (race_off, race_on)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssmstcheck [-a analyzers] [-json] [-variants race_off,race_on] [./... | packages...]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := analysis.All()
	if only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ssmstcheck: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	start := time.Now()
	var merged []analysis.Diagnostic
	loaded := 0
	names := strings.Split(variants, ",")
	for _, v := range names {
		v = strings.TrimSpace(v)
		tags, ok := variantTags[v]
		if !ok {
			fmt.Fprintf(os.Stderr, "ssmstcheck: unknown variant %q (known: race_off, race_on)\n", v)
			os.Exit(2)
		}

		loader, err := analysis.NewLoader(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssmstcheck: %s: %v\n", v, err)
			os.Exit(2)
		}
		loader.Tags = tags

		pkgs, err := load(loader, flag.Args())
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssmstcheck: %s: %v\n", v, err)
			os.Exit(2)
		}
		loaded = len(pkgs)

		diags := analysis.Run(pkgs, analyzers, analysis.DefaultConfig())
		for _, d := range diags {
			// An analyzer that errored is a broken run, not a finding.
			if strings.HasPrefix(d.Message, "analyzer error:") {
				fmt.Fprintf(os.Stderr, "ssmstcheck: %s: [%s] %s\n", v, d.Analyzer, d.Message)
				os.Exit(2)
			}
		}
		merged = append(merged, diags...)
	}

	diags := dedup(merged)
	if asJSON {
		printJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	fmt.Fprintf(os.Stderr, "ssmstcheck: %d analyzer(s) × %d package(s) × %d variant(s) in %v\n",
		len(analyzers), loaded, len(names), time.Since(start).Round(time.Millisecond))
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ssmstcheck: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// dedup drops findings that repeat across variant runs (files not gated on
// any tag are loaded and analyzed once per variant). Input is a
// concatenation of per-variant runs, each already position-sorted; output
// keeps that order with exact duplicates removed.
func dedup(diags []analysis.Diagnostic) []analysis.Diagnostic {
	seen := map[analysis.Diagnostic]bool{}
	out := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return analysis.Sort(out)
}

// jsonDiag is the stable machine-readable finding shape for -json.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func printJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "ssmstcheck:", err)
		os.Exit(2)
	}
}

// load resolves the command-line package patterns. "./..." (or no
// arguments) loads the whole module; "./dir" loads one directory.
func load(l *analysis.Loader, args []string) ([]*analysis.Package, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := l.LoadModule()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, all...)
			continue
		}
		dir, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %s is outside module %s", arg, l.ModulePath)
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
