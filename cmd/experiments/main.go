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
	"os"

	"ssmst/internal/core"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `experiments — regenerate the paper's measured tables.

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

    all               the default suite (every row below except
                      detectionscaling, churnscaling and campaign)
    table1            Table 1 — space/time of the self-stabilizing MST vs
                      the baseline classes (measured bits/node and rounds)
    table2            Table 2 — Roots/EndP/Parents/Or_EndP strings on the
                      Figure 1 example, checked against the paper
    detection         E3 — synchronous detection time (O(log² n))
    detectionasync    E4 — asynchronous detection time (O(Δ·log³ n))
    detectionscaling  E3/E12 past n=10⁴ on the incremental in-place engine
                      (minutes of wall clock; not part of "all")
    churnscaling      E3-churn — detection latency under live topology churn
                      (weight flips, link cut/add through MutateTopology) at
                      n∈{1024,4096,16384}; minutes of wall clock, not part
                      of "all"
    distance          E5 — fault-to-alarm distance (O(f·log n))
    construction      E6 — SYNC_MST vs GHS construction rounds and memory
    memory            E7 — label bits: this scheme (O(log n)) vs KK (log² n)
    partitions        E9 — partition shape (Lemmas 6.4/6.5)
    selfstab          E12/E13 — stabilization and fault recovery (O(n))
    lowerbound        E8 — §9 stretched instances: time × memory tradeoff
    campaign          adversarial fault campaign: corrupted-MST detection
                      latency vs corruption density k per graph family, plus
                      the correlated-scenario matrix (regional outage, fault
                      storm, churn storm, transformer re-stabilization) —
                      every cell cross-checked against the centralized
                      T-lightness and cycle-property oracles
`)
}

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|table2|detection|detectionasync|detectionscaling|churnscaling|distance|construction|memory|partitions|selfstab|lowerbound|campaign")
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
