// Quickstart: construct an MST with SYNC_MST, label it with the O(log n)
// proof labeling scheme, and run the distributed verifier.
package main

import (
	"fmt"
	"log"

	"ssmst"
)

func main() {
	g := ssmst.RandomGraph(48, 120, 42)
	fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())

	// 1. Distributed MST construction (§4): O(n) rounds, O(log n) bits.
	edges, rounds, err := ssmst.ConstructMST(g)
	if err != nil {
		log.Fatal(err)
	}
	minimal := ssmst.IsMST(g, edges)
	fmt.Printf("SYNC_MST: %d tree edges in %d rounds; minimal: %v\n",
		len(edges), rounds, minimal)
	if !minimal {
		log.Fatal("SYNC_MST's tree is not the minimum spanning tree")
	}

	// 2. The marker (§5–6): every node gets O(log n) bits of proof labels.
	labeled, err := ssmst.Mark(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("marker: max %d label bits/node, construction time %d rounds\n",
		labeled.MaxLabelBits(), labeled.ConstructionTime)

	// 3. The verifier (§7–8): trains rotate the distributed pieces; every
	// node continuously checks its neighbourhood. On a correct instance it
	// stays silent forever.
	v := ssmst.NewVerifier(labeled, ssmst.Sync, 1)
	quiet := ssmst.DetectionBudget(g.N())
	if err := v.RunQuiet(quiet); err != nil {
		log.Fatalf("unexpected: %v", err)
	}
	fmt.Printf("verifier: silent for %d rounds on the correct instance ✓\n", quiet)
	fmt.Printf("memory: max %d bits/node total (labels + verifier state)\n",
		v.Eng.MaxStateBits())
}
