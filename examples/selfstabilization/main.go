// Self-stabilization: start the transformer from adversarial arbitrary
// states, watch it converge to the MST, then corrupt a label and watch the
// detection → reset → rebuild cycle (§10).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssmst"
	"ssmst/internal/selfstab"
)

func main() {
	g := ssmst.RandomGraph(24, 60, 11)
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	r, err := ssmst.NewSelfStabilizing(g, g.N(), ssmst.Sync, 5)
	if err != nil {
		log.Fatal(err)
	}
	r.Scramble(rand.New(rand.NewSource(99))) // adversarial initial states
	rounds, ok := r.RunUntilStable(2 * r.StabilizationBudget())
	if !ok {
		log.Fatal("did not stabilize")
	}
	fmt.Printf("stabilized from arbitrary states in %d rounds; output is MST: %v\n",
		rounds, r.OutputIsMST())
	fmt.Printf("memory: max %d bits/node\n", r.Eng.MaxStateBits())

	// Corrupt a proof label at node 3: the verifier detects, a new epoch
	// floods, SYNC_MST rebuilds, and the system re-stabilizes.
	epoch := r.Eng.State(0).(*selfstab.SState).Epoch
	if !r.InjectLabelFault(3, rand.New(rand.NewSource(1))) {
		log.Fatal("could not inject fault")
	}
	rec, ok := r.RunUntilStable(r.StabilizationBudget())
	if !ok {
		log.Fatal("did not recover")
	}
	fmt.Printf("fault at node 3: detected, rebuilt (epoch %d → %d) and re-stabilized in %d rounds\n",
		epoch, r.Eng.State(0).(*selfstab.SState).Epoch, rec)
}
