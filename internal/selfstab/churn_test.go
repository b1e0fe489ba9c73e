package selfstab

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

// TestChurnRestabilizesToNewMST is the end-to-end live-topology story of
// the transformer: a stabilized network hit by MST-preserving churn keeps
// checking quietly, and an MST-breaking weight drop is detected by the
// check phase, which rebuilds — converging to the minimum spanning tree of
// the *mutated* graph, lightened edge included.
func TestChurnRestabilizesToNewMST(t *testing.T) {
	g := graph.RandomConnected(24, 60, 9)
	r := NewRunner(g, g.N(), verify.Sync, 1)
	if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
		t.Fatal("did not stabilize before churn")
	}
	rng := rand.New(rand.NewSource(3))

	// MST-preserving events: the network must hold its stabilized output
	// through every round — the proof stays valid, so no epoch restarts.
	for _, kind := range []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy} {
		ev, ok := r.ApplyChurn(kind, rng)
		if !ok {
			t.Fatalf("no %v mutation available", kind)
		}
		if i, left := r.RunUntilDetect(40); left {
			t.Fatalf("MST-preserving churn %v knocked a node out of the check phase at round %d", ev, i)
		}
		if !r.OutputIsMST() {
			t.Fatalf("output is no longer the MST after MST-preserving churn %v", ev)
		}
	}

	// An MST-breaking weight drop: detection, a new epoch, and convergence
	// to the mutated graph's MST — which must now use the lightened edge.
	ev, ok := r.ApplyChurn(verify.ChurnWeightBreak, rng)
	if !ok {
		t.Fatal("no weight-break mutation available")
	}
	if _, detected := r.RunUntilDetect(2 * verify.DetectionBudget(g.N())); !detected {
		t.Fatalf("MST-breaking churn %v was never detected", ev)
	}
	if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
		t.Fatalf("did not re-stabilize after churn %v", ev)
	}
	if !r.OutputIsMST() {
		t.Fatal("re-stabilized output is not the MST of the mutated graph")
	}
	edges, _ := r.OutputEdges()
	want := g.EdgeBetween(ev.U, ev.V)
	found := false
	for _, e := range edges {
		if e == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("the lightened edge (%d,%d) is not in the re-stabilized tree", ev.U, ev.V)
	}
}

// TestApplyChurnRequiresCoherentOutput: before stabilization the
// check-phase parent pointers are garbage (or absent); ApplyChurn must
// refuse to plan against them — a half-built forest would classify every
// edge as non-tree and could cut a bridge — and must leave the graph
// untouched.
func TestApplyChurnRequiresCoherentOutput(t *testing.T) {
	g := graph.RandomConnected(16, 40, 7)
	r := NewRunner(g, g.N(), verify.Sync, 1)
	m, version := g.M(), g.Version()
	rng := rand.New(rand.NewSource(2))
	for kind := verify.ChurnKind(0); int(kind) < verify.NumChurnKinds; kind++ {
		if _, ok := r.ApplyChurn(kind, rng); ok {
			t.Fatalf("%v planned against an unstabilized network", kind)
		}
	}
	if g.M() != m || g.Version() != version {
		t.Fatal("refused churn still mutated the graph")
	}
}

// TestApplyChurnRejectsNonSpanningOutput: every node checks quietly, but one
// parent pointer is turned toward a child, so the output holds n−1 edge ids
// with one repeated and does not span. graph.TreeFromEdges rejects that set,
// and its error alone makes ApplyChurn refuse, leaving the graph untouched.
func TestApplyChurnRejectsNonSpanningOutput(t *testing.T) {
	g := graph.RandomConnected(16, 40, 7)
	l, err := verify.Mark(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(g, g.N(), verify.Sync, 1)
	r.SeedStable(l)
	v := l.Tree.Root
	c := l.Tree.Children(v)[0]
	if !r.InjectCheckFault(v, func(s *verify.VState) bool {
		s.ParentPort = int32(g.PortTo(v, c))
		return true
	}) {
		t.Fatal("the parent-pointer fault did not apply")
	}
	if !r.Eng.AllDone() {
		t.Fatal("the fault knocked a node out of the quiet check phase")
	}
	if _, ok := r.OutputEdges(); ok {
		t.Fatal("OutputEdges reports a spanning tree")
	}
	m, version := g.M(), g.Version()
	rng := rand.New(rand.NewSource(2))
	for kind := verify.ChurnKind(0); int(kind) < verify.NumChurnKinds; kind++ {
		if _, ok := r.ApplyChurn(kind, rng); ok {
			t.Fatalf("%v planned against a non-spanning output", kind)
		}
	}
	if g.M() != m || g.Version() != version {
		t.Fatal("refused churn still mutated the graph")
	}
}

// TestChurnLinkCutOfTreeEdge: cutting an edge of the *output tree* severs a
// component pointer — the engine remaps the lost parent port to a root
// claim, the SP layer rejects, and the transformer rebuilds a spanning MST
// of the remaining (still connected) graph.
func TestChurnLinkCutOfTreeEdge(t *testing.T) {
	g := graph.RandomConnected(20, 56, 11)
	r := NewRunner(g, g.N(), verify.Sync, 2)
	if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
		t.Fatal("did not stabilize before churn")
	}
	edges, ok := r.OutputEdges()
	if !ok {
		t.Fatal("no coherent output tree")
	}
	// Capture the tree edges by endpoints: RemoveEdge's swap-with-last id
	// compaction (and the put-back AddEdge) reshuffle edge indices mid-loop,
	// so a pre-computed index list would go stale after the first attempt.
	type pair struct{ u, v int }
	var treeEdges []pair
	for _, e := range edges {
		ed := g.Edge(e)
		treeEdges = append(treeEdges, pair{ed.U, ed.V})
	}
	// Cut a tree edge whose removal keeps the graph connected; a bridge is
	// put back within the same mutation.
	cut := false
	for _, p := range treeEdges {
		bridge := false
		err := r.Eng.MutateTopology(func(g *graph.Graph) error {
			e := g.EdgeBetween(p.u, p.v)
			if e < 0 {
				return fmt.Errorf("tree edge (%d,%d) vanished", p.u, p.v)
			}
			w := g.Edge(e).W
			if err := g.RemoveEdge(e); err != nil {
				return err
			}
			if g.Connected() {
				return nil
			}
			bridge = true
			_, err := g.AddEdge(p.u, p.v, w)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bridge {
			cut = true
			break
		}
	}
	if !cut {
		t.Skip("every tree edge is a bridge in this instance")
	}
	if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
		t.Fatal("did not re-stabilize after a tree-edge cut")
	}
	if !r.OutputIsMST() {
		t.Fatal("re-stabilized output is not the MST of the cut graph")
	}
}
