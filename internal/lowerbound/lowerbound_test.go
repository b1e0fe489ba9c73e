package lowerbound

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

func TestStretchShape(t *testing.T) {
	g := graph.RandomConnected(10, 20, 3)
	for _, tau := range []int{1, 2, 4} {
		st, err := Stretch(g, tau)
		if err != nil {
			t.Fatal(err)
		}
		wantN := g.N() + g.M()*2*tau
		if st.G.N() != wantN {
			t.Fatalf("tau=%d: n=%d, want %d", tau, st.G.N(), wantN)
		}
		if st.G.M() != g.M()*(2*tau+1) {
			t.Fatalf("tau=%d: m=%d", tau, st.G.M())
		}
		if !st.G.Connected() {
			t.Fatal("stretched graph disconnected")
		}
		if err := st.G.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStretchPreservesMSTness(t *testing.T) {
	// T is an MST of G iff its stretched image is an MST of G′ (§9).
	g := graph.RandomConnected(8, 16, 7)
	mst, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stretch(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := stretchTree(t, g, st, mst)
	if !graph.IsSpanningTree(st.G, good) {
		t.Fatal("stretched MST not a spanning tree")
	}
	if !graph.IsMST(st.G, good, graph.ByWeight(st.G)) {
		t.Fatal("stretched MST not minimal")
	}
	// A non-minimal tree of G stretches to a non-minimal tree of G′.
	inMST := map[int]bool{}
	for _, e := range mst {
		inMST[e] = true
	}
	bad := buildNonMST(t, g, mst)
	if bad != nil {
		badStretched := stretchTree(t, g, st, bad)
		if !graph.IsSpanningTree(st.G, badStretched) {
			t.Fatal("stretched tree not spanning")
		}
		if graph.IsMST(st.G, badStretched, graph.ByWeight(st.G)) {
			t.Fatal("non-MST stretched to an MST")
		}
	}
}

// stretchTree maps a spanning tree of G (edge set) to the corresponding
// spanning structure of G′ per Figures 10–11: tree-edge paths are included
// whole; a non-tree edge's path is included except its heavy last edge, so
// the image is a spanning tree of G′ iff the original was one of G, and it
// is minimal iff the original was.
func stretchTree(t *testing.T, g *graph.Graph, st *Stretched, origTree []int) []int {
	t.Helper()
	inTree := make(map[int]bool, len(origTree))
	for _, e := range origTree {
		inTree[e] = true
	}
	var edges []int
	for e, inner := range st.PathNodes {
		u, v := g.Edge(e).U, g.Edge(e).V
		if g.ID(u) > g.ID(v) {
			u, v = v, u
		}
		full := append(append([]int{u}, inner...), v)
		for k := 0; k+1 < len(full); k++ {
			if !inTree[e] && k+2 == len(full) {
				continue // exclude the heavy last edge of a non-tree path
			}
			ei := st.G.EdgeBetween(full[k], full[k+1])
			if ei < 0 {
				t.Fatalf("edge %d: missing path edge %d–%d", e, full[k], full[k+1])
			}
			edges = append(edges, ei)
		}
	}
	return edges
}

func buildNonMST(t *testing.T, g *graph.Graph, mst []int) []int {
	t.Helper()
	inTree := map[int]bool{}
	for _, e := range mst {
		inTree[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if inTree[e] {
			continue
		}
		ed := g.Edge(e)
		tr, _ := graph.TreeFromEdges(g, mst, ed.U)
		for x := ed.V; x != ed.U; x = tr.Parent[x] {
			pe := tr.ParentEdge[x]
			if g.Edge(pe).W < ed.W {
				var alt []int
				for _, te := range mst {
					if te != pe {
						alt = append(alt, te)
					}
				}
				return append(alt, e)
			}
		}
	}
	return nil
}

func TestDetectionTimeGrowsWithTau(t *testing.T) {
	// E8: at fixed O(log n) memory, the same fault needs more rounds to be
	// detected on more stretched instances (the §9 tradeoff). We verify
	// that the scheme still works on stretched instances and report the
	// detection times.
	g := graph.RandomConnected(8, 12, 11)
	var times []int
	for _, tau := range []int{1, 3} {
		st, err := Stretch(g, tau)
		if err != nil {
			t.Fatal(err)
		}
		l, err := verify.Mark(st.G)
		if err != nil {
			t.Fatal(err)
		}
		r := verify.NewRunner(l, verify.Sync, 5)
		budget := verify.DetectionBudget(st.G.N())
		r.Eng.RunSyncRounds(budget / 4)
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatal("false alarm on stretched instance")
		}
		// Corrupt the component at an inner path node: the structure fault
		// must be detected.
		victim := st.PathNodes[0][tau]
		r.Inject(victim, func(vs *verify.VState) {
			vs.L.SP.Dist += 2
		})
		rounds, _, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			t.Fatalf("tau=%d: fault not detected", tau)
		}
		times = append(times, rounds)
		t.Logf("tau=%d (n=%d): detected in %d rounds", tau, st.G.N(), rounds)
	}
}

func TestHardFamily(t *testing.T) {
	g := HardFamily(5)
	if !g.Connected() || !g.HasDistinctWeights() {
		t.Fatal("hard family malformed")
	}
	if g.N() != 31 {
		t.Fatalf("n=%d", g.N())
	}
	if _, err := graph.Kruskal(g, graph.ByWeight(g)); err != nil {
		t.Fatal(err)
	}
}
