// Live-topology churn: mutate the network — weight flips, link cuts, link
// insertions — under the running detection pipeline. MST-preserving events
// keep the verifier silent; MST-breaking events are detected within the
// O(log² n) budget; the self-stabilizing transformer goes one step further
// and rebuilds the MST of the mutated graph.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssmst"
)

func main() {
	g := ssmst.RandomGraph(64, 160, 5)
	budget := ssmst.DetectionBudget(g.N())
	labeled, err := ssmst.Mark(g)
	if err != nil {
		log.Fatal(err)
	}
	v := ssmst.NewVerifier(labeled, ssmst.Sync, 1)
	v.Eng.RunSyncRounds(budget / 4) // warm up: trains cycling, memos settled
	fmt.Printf("graph: n=%d m=%d; detection budget %d rounds\n\n", g.N(), g.M(), budget)

	rng := rand.New(rand.NewSource(9))
	for _, kind := range []ssmst.ChurnKind{
		ssmst.ChurnWeightKeep, ssmst.ChurnCut, ssmst.ChurnAddHeavy,
	} {
		ev, ok := v.ApplyChurn(kind, rng)
		if !ok {
			log.Fatalf("no %v mutation available", kind)
		}
		if err := v.RunQuiet(120); err != nil {
			log.Fatalf("MST-preserving churn %v raised an alarm: %v", ev, err)
		}
		fmt.Printf("%-32v MST preserved — verifier silent ✓\n", ev)
	}
	for _, kind := range []ssmst.ChurnKind{ssmst.ChurnWeightBreak, ssmst.ChurnAddLight} {
		labeled, err := ssmst.Mark(g) // fresh proof for the current graph
		if err != nil {
			log.Fatal(err)
		}
		v := ssmst.NewVerifier(labeled, ssmst.Sync, 1)
		v.Eng.RunSyncRounds(budget / 4)
		ev, ok := v.ApplyChurn(kind, rng)
		if !ok {
			log.Fatalf("no %v mutation available", kind)
		}
		rounds, alarms, detected := v.RunUntilAlarm(2 * budget)
		if !detected {
			log.Fatalf("MST-breaking churn %v was never detected", ev)
		}
		fmt.Printf("%-32v MST broken — detected in %d rounds (%d alarming nodes)\n",
			ev, rounds, len(alarms))
	}

	// The transformer heals: detection starts a new epoch, SYNC_MST rebuilds
	// over the mutated graph, and the network re-stabilizes on the new MST.
	fmt.Println("\nself-stabilizing transformer under churn:")
	sg := ssmst.RandomGraph(24, 60, 5)
	r, err := ssmst.NewSelfStabilizing(sg, sg.N(), ssmst.Sync, 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
		log.Fatal("did not stabilize")
	}
	ev, ok := r.ApplyChurn(ssmst.ChurnWeightBreak, rng)
	if !ok {
		log.Fatal("no weight-break mutation available")
	}
	rounds, ok := r.RunUntilStable(2 * r.StabilizationBudget())
	fmt.Printf("after %v: re-stabilized=%v in %d rounds, output is the new MST=%v\n",
		ev, ok, rounds, r.OutputIsMST())
}
