// Command experiments regenerates the paper's measured tables, one function
// of internal/core per table or figure; -h lists the menu.
//
// Usage:
//
//	go run ./cmd/experiments            # full suite
//	go run ./cmd/experiments -exp table2 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"

	"ssmst/internal/core"
)

// usage prints the help text; the experiment list comes from core.Menu, so
// a menu entry shows up here with its description and nowhere else needs
// editing.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprint(w, `experiments — regenerate the paper's measured tables.

Each experiment maps to one table/figure of Korman–Kutten–Masuzawa (the
E-numbers below); tables print as Markdown on stdout. The engine's own
round cost (E14/E14b) is a benchmark instead:

  go test -run '^$' -bench EngineScaling -benchmem .

Usage:

  go run ./cmd/experiments [-exp name] [-seed n]

Flags:

  -seed int   random seed shared by graph generation and fault sites
              (default 1)
  -exp name   which experiment to run (default "all"):

`)
	var skipped []string
	core.Menu(func(name, _ string, inAll bool) {
		if !inAll {
			skipped = append(skipped, name)
		}
	})
	printEntry(w, "all", "the default suite (every row below except "+andList(skipped)+")")
	core.Menu(func(name, doc string, _ bool) { printEntry(w, name, doc) })
}

// printEntry prints one menu row: the name in an 18-column field, then the
// description wrapped at 76 columns under its first line.
func printEntry(w io.Writer, name, doc string) {
	const indent, width = 22, 76
	line := fmt.Sprintf("    %-17s ", name)
	col := utf8.RuneCountInString(line)
	for i, word := range strings.Fields(doc) {
		n := utf8.RuneCountInString(word)
		if i > 0 && col+1+n > width {
			fmt.Fprintln(w, line)
			line, col = strings.Repeat(" ", indent)+word, indent+n
			continue
		}
		if i > 0 {
			line += " "
			col++
		}
		line += word
		col += n
	}
	fmt.Fprintln(w, line)
}

// andList joins names as "a, b and c".
func andList(names []string) string {
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

func main() {
	names := []string{"all"}
	core.Menu(func(name, _ string, _ bool) { names = append(names, name) })
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|"))
	seed := flag.Int64("seed", 1, "random seed")
	flag.Usage = usage
	flag.Parse()

	tables, ok := core.Experiment(*exp, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t.Markdown())
	}
}
