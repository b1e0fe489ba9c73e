// Command ssmstcheck runs the ssmst invariant analyzers (hotpathalloc,
// memocontract, determinism, bitsizeaudit, bufferdiscipline, coastpure)
// over the module and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/ssmstcheck ./...            # whole module (CI invocation)
//	go run ./cmd/ssmstcheck ./internal/verify
//	go run ./cmd/ssmstcheck -a bitsizeaudit ./...
//	go run ./cmd/ssmstcheck -json ./...
//
// The module is loaded and type-checked once, under the default build's
// tags. Only internal/raceflag has build-tagged files, and only tests import
// it, so every other build (-race included) audits the same code; the
// analysis meta test fails if a tag-gated file appears anywhere else.
// Diagnostics are printed in a stable position order.
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

func main() {
	var (
		only   string
		asJSON bool
	)
	flag.StringVar(&only, "a", "", "comma-separated analyzer names to run (default: all)")
	flag.BoolVar(&asJSON, "json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssmstcheck [-a analyzers] [-json] [./... | packages...]\n\nanalyzers:\n")
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
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssmstcheck: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := load(loader, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssmstcheck: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers, analysis.DefaultConfig())
	for _, d := range diags {
		// An analyzer that errored is a broken run, not a finding.
		if strings.HasPrefix(d.Message, "analyzer error:") {
			fmt.Fprintf(os.Stderr, "ssmstcheck: [%s] %s\n", d.Analyzer, d.Message)
			os.Exit(2)
		}
	}

	if asJSON {
		printJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	fmt.Fprintf(os.Stderr, "ssmstcheck: %d analyzer(s) × %d package(s) in %v\n",
		len(analyzers), len(pkgs), time.Since(start).Round(time.Millisecond))
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ssmstcheck: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
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
