// Command mstlab is a single-run driver: generate a graph, construct the
// MST, label it, verify it, optionally inject a fault, and report what the
// paper's quantities measure to.
//
// Usage:
//
//	go run ./cmd/mstlab -n 64 -m 160 -seed 3 -fault roots -async
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"ssmst"
	"ssmst/internal/selfstab"
	"ssmst/internal/verify"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `mstlab — single-run driver for the KKM self-stabilizing MST reproduction.

Generates a connected random graph, constructs the MST (SYNC_MST, §4),
assigns the O(log n)-bit proof labels (§5–7), runs the distributed verifier
(§8), optionally injects a fault, and reports the paper's quantities
(rounds, bits/node, detection time and distance). With -selfstab it runs
the §10 self-stabilizing construction instead.

Usage:

  go run ./cmd/mstlab [flags]

Examples:

  go run ./cmd/mstlab -n 64 -m 160 -seed 3            # quiet verification
  go run ./cmd/mstlab -n 64 -fault roots -async        # detect a §5 fault
  go run ./cmd/mstlab -n 64 -churn weight-break        # detect a live weight flip
  go run ./cmd/mstlab -n 64 -corrupt 4                 # catch a 4-edit non-MST tree
  go run ./cmd/mstlab -selfstab -n 32 -churn add-light # rebuild after link churn
  go run ./cmd/mstlab -selfstab -n 32                  # full §10 stabilization
  go run ./cmd/mstlab -n 4096 -workers 1 -fullrecheck # reference step path

Graph flags:

  -n int      number of nodes (default 48)
  -m int      number of edges; 0 means 2.5·n (default 0)
  -seed int   random seed for the graph, daemon and fault site (default 1)

Run-mode flags:

  -async      use the asynchronous weakly-fair daemon (§2.1) instead of
              synchronous rounds; detection budgets scale to O(Δ·log³ n)
  -selfstab   run the self-stabilizing transformer (§10) to stabilization
              instead of the verify-only pipeline
  -fault kind inject one fault after a warm-up quarter-budget (at the
              first random node it applies to) and measure detection
              time and distance. Kinds (each corrupts a different
              label layer): piecew (stored piece's ω̂), pieceid (stored
              piece's fragment id), roots (a Roots string entry, §5), endp
              (an EndP entry, §5), spdist (SP distance, §2.6), sizen (the
              NumK node count), component (re-point the parent pointer)
  -churn kind mutate the live topology after the warm-up instead of
              corrupting a register: the graph changes under the running
              pipeline (Engine.MutateTopology: CSR re-sync, port remapping,
              dirty-epoch bumps). MST-preserving kinds must stay silent;
              MST-breaking kinds are detected like any other fault. Kinds:
              weight-keep (raise a non-tree weight), weight-break (drop a
              non-tree weight below its cycle max), cut (remove a non-tree
              link), add-heavy (insert a heavier-than-everything link),
              add-light (insert a link closing a lighter cycle). With
              -selfstab the transformer additionally rebuilds the MST of
              the mutated graph after an MST-breaking event
  -corrupt k  label a k-edit corrupted spanning tree instead of the MST
              (k random cycle edits, each swapping a lighter tree edge for
              a heavier non-tree one) and let the verifier catch the tree
              itself; the centralized T-lightness and cycle-property
              oracles (internal/oracle) cross-check the verdict. k=0
              labels the true MST and must stay silent. Mutually
              exclusive with -fault/-churn/-selfstab

Engine flags (the knobs BenchmarkEngineScaling measures):

  -workers int  pool workers per round. 0 (the default) fans out over the
                whole pool once a round steps at least 512 nodes on a
                multi-core process; k > 0 fans out every round of at least
                2 nodes over up to k workers, even on one core; 1 steps
                every round serially
  -fullrecheck  disable incremental verification: re-check every label
                layer every round instead of memoizing the static verdict
                (the pre-incremental reference configuration)
`)
}

func main() {
	n := flag.Int("n", 48, "number of nodes")
	m := flag.Int("m", 0, "number of edges (0: 2.5n)")
	seed := flag.Int64("seed", 1, "random seed")
	fault := flag.String("fault", "", "inject a fault: piecew|pieceid|roots|endp|spdist|sizen|component")
	churn := flag.String("churn", "", "mutate the live topology: weight-keep|weight-break|cut|add-heavy|add-light")
	corrupt := flag.Int("corrupt", -1, "label a k-edit corrupted spanning tree instead of the MST (-1: off; 0: the MST itself)")
	async := flag.Bool("async", false, "asynchronous daemon")
	selfStab := flag.Bool("selfstab", false, "run the self-stabilizing construction instead")
	workers := flag.Int("workers", 0, "pool workers per round (0: automatic, the whole pool at n>=512 on multi-core; k>0: up to k at any n; 1: serial)")
	fullRecheck := flag.Bool("fullrecheck", false, "disable incremental verification (re-check all label layers every round)")
	flag.Usage = usage
	flag.CommandLine.SetOutput(os.Stderr)
	flag.Parse()

	tune := func(e *ssmst.Engine) { e.Workers = *workers } // every runner's engine is Parallel
	newVerifier := ssmst.NewVerifier
	if *fullRecheck {
		newVerifier = verify.NewFullRecheckRunner
	}

	if *m == 0 {
		*m = *n * 5 / 2
	}
	if *fault != "" && *churn != "" {
		log.Fatal("-fault and -churn are mutually exclusive (one injected event per run)")
	}
	if *corrupt >= 0 && (*fault != "" || *churn != "" || *selfStab) {
		log.Fatal("-corrupt is mutually exclusive with -fault/-churn/-selfstab (the corrupted tree is the fault)")
	}
	churnKind, churnOK := ssmst.ParseChurnKind(*churn)
	if *churn != "" && !churnOK {
		log.Fatalf("unknown churn kind %q", *churn)
	}
	g := ssmst.RandomGraph(*n, *m, *seed)
	mode := ssmst.Sync
	if *async {
		mode = ssmst.Async
	}
	// Diameter is the O(n+m) double-sweep value: exact on trees, a lower
	// bound (within 2×) on general graphs — hence the ≥ in the banner.
	fmt.Printf("graph: n=%d m=%d Δ=%d diameter≥%d\n", g.N(), g.M(), g.MaxDegree(), g.Diameter())

	if *corrupt >= 0 {
		tree, err := ssmst.CorruptSpanningTree(g, *corrupt, *seed)
		if err != nil {
			log.Fatal(err)
		}
		oracleStart := time.Now()
		oracleMST, err := ssmst.OracleIsMST(g, tree)
		if err != nil {
			log.Fatal(err) // the two oracles disagreed — a checker bug
		}
		fmt.Printf("corrupted tree: %d cycle edits; oracles agree: MST=%v (cross-check %v)\n",
			*corrupt, oracleMST, time.Since(oracleStart).Round(time.Microsecond))
		labeled, err := ssmst.MarkTree(g, tree)
		if err != nil {
			log.Fatal(err)
		}
		v := newVerifier(labeled, mode, *seed)
		tune(v.Eng)
		budget := ssmst.DetectionBudget(g.N())
		if oracleMST {
			if err := v.RunQuiet(budget); err != nil {
				log.Fatalf("network disagrees with the oracles: %v", err)
			}
			fmt.Printf("verifier silent for %d rounds on the oracle-certified MST ✓\n", budget)
			return
		}
		det, alarms, found := v.RunUntilAlarm(budget)
		if !found {
			log.Fatalf("network disagrees with the oracles: no alarm within the %d-round budget on an oracle-rejected tree", budget)
		}
		fmt.Printf("verifier caught the corrupted tree in %d rounds (budget %d), %d alarming nodes — matches the oracle verdict ✓\n",
			det, budget, len(alarms))
		return
	}

	if *selfStab {
		var r *ssmst.SelfStabilizing
		if *fullRecheck {
			r = selfstab.NewFullRecheckRunner(g, g.N(), mode, *seed)
		} else {
			var err error
			if r, err = ssmst.NewSelfStabilizing(g, g.N(), mode, *seed); err != nil {
				log.Fatal(err)
			}
		}
		tune(r.Eng)
		rounds, ok := r.RunUntilStable(2 * r.StabilizationBudget())
		fmt.Printf("self-stabilizing MST: stabilized=%v in %d rounds, MST=%v, max bits/node=%d\n",
			ok, rounds, r.OutputIsMST(), r.Eng.MaxStateBits())
		if *churn == "" {
			return
		}
		if !ok {
			log.Fatalf("cannot inject the requested churn: the network did not stabilize within 2× budget")
		}
		rng := rand.New(rand.NewSource(*seed))
		ev, applied := r.ApplyChurn(churnKind, rng)
		if !applied {
			log.Fatalf("no %v mutation available", churnKind)
		}
		fmt.Printf("churn: %v applied to the stabilized network\n", ev)
		if !churnKind.BreaksMST() {
			if i, left := r.RunUntilDetect(60); left {
				log.Fatalf("MST-preserving churn knocked the network out of the check phase at round %d", i)
			}
			fmt.Printf("network held the check phase for 60 rounds; output MST=%v ✓\n", r.OutputIsMST())
			return
		}
		detect, found := r.RunUntilDetect(2 * ssmst.DetectionBudget(g.N()))
		if !found {
			log.Fatal("MST-breaking churn was never detected")
		}
		rounds2, ok2 := r.RunUntilStable(2 * r.StabilizationBudget())
		fmt.Printf("detected in %d rounds; re-stabilized=%v in %d rounds on the mutated graph, MST=%v\n",
			detect, ok2, rounds2, r.OutputIsMST())
		return
	}

	edges, rounds, err := ssmst.ConstructMST(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SYNC_MST: %d rounds, minimal=%v\n", rounds, ssmst.IsMST(g, edges))
	labeled, err := ssmst.Mark(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("marker: %d rounds, max label bits=%d\n", labeled.ConstructionTime, labeled.MaxLabelBits())

	v := newVerifier(labeled, mode, *seed)
	tune(v.Eng)
	budget := ssmst.DetectionBudget(g.N())
	if *churn != "" {
		warmUp(v, budget/4)
		rng := rand.New(rand.NewSource(*seed))
		ev, applied := v.ApplyChurn(churnKind, rng)
		if !applied {
			log.Fatalf("no %v mutation available", churnKind)
		}
		fmt.Printf("churn: %v applied under the running verifier\n", ev)
		if !churnKind.BreaksMST() {
			if err := v.RunQuiet(budget); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("verifier silent for %d rounds after MST-preserving churn ✓ (max bits/node %d)\n",
				budget, v.Eng.MaxStateBits())
			return
		}
		detect, alarms, found := v.RunUntilAlarm(2 * budget)
		if !found {
			log.Fatal("MST-breaking churn was never detected")
		}
		dists := verify.DetectionDistance(g, []int{ev.U, ev.V}, alarms)
		d := dists[0]
		if len(dists) > 1 && dists[1] >= 0 && (d < 0 || dists[1] < d) {
			d = dists[1]
		}
		fmt.Printf("churn %v: detected in %d rounds, distance %d from the mutated link, %d alarming nodes\n",
			ev, detect, d, len(alarms))
		return
	}
	if *fault == "" {
		if err := v.RunQuiet(budget); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verifier: silent for %d rounds ✓ (max bits/node %d)\n", budget, v.Eng.MaxStateBits())
		return
	}
	kinds := map[string]verify.FaultKind{
		"piecew": verify.FaultStoredPieceW, "pieceid": verify.FaultStoredPieceID,
		"roots": verify.FaultRootsEntry, "endp": verify.FaultEndPEntry,
		"spdist": verify.FaultSPDist, "sizen": verify.FaultSizeN,
		"component": verify.FaultComponent,
	}
	kind, ok := kinds[*fault]
	if !ok {
		log.Fatalf("unknown fault %q", *fault)
	}
	warmUp(v, budget/4)
	// Not every node stores a piece (piecew, pieceid): retry victims until
	// the fault applies, keeping the first draw.
	rng := rand.New(rand.NewSource(*seed))
	node, injected := -1, false
	for att := 0; att < g.N() && !injected; att++ {
		node = rng.Intn(g.N())
		injected = v.InjectKind(node, kind, rng)
	}
	if !injected {
		log.Fatal("fault did not apply")
	}
	det, alarms, found := v.RunUntilAlarm(2 * budget)
	if !found {
		fmt.Println("fault not detected (configuration may remain a valid proof)")
		return
	}
	d := verify.DetectionDistance(g, []int{node}, alarms)[0]
	fmt.Printf("fault %q at node %d: detected in %d rounds, distance %d, %d alarming nodes\n",
		*fault, node, det, d, len(alarms))
}

// warmUp steps the verifier for the given number of time units under the
// daemon it was built with.
func warmUp(v *ssmst.Verifier, units int) {
	for i := 0; i < units; i++ {
		v.Step()
	}
}
