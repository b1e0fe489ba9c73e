package oracle

import (
	"testing"

	"ssmst/internal/graph"
)

// TestAgreesWithIsMSTOnMSTs: both oracles accept the true MST of every
// campaign family, agreeing with the repository's reference IsMST.
func TestAgreesWithIsMSTOnMSTs(t *testing.T) {
	const seed = int64(11)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			t.Fatalf("family %s seed %d: %v", fam, seed, err)
		}
		if !graph.IsMST(g, mst, graph.ByWeight(g)) {
			t.Fatalf("family %s seed %d: reference oracle rejects Kruskal output", fam, seed)
		}
		for name, verdict := range map[string]Verdict{
			"tlight": TLightness(g, mst, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, mst, graph.ByWeight(g)),
		} {
			if !verdict.Spanning || !verdict.IsMST {
				t.Errorf("family %s seed %d: %s rejects the MST: %+v", fam, seed, name, verdict)
			}
		}
		if ok, err := CrossCheck(g, mst, graph.ByWeight(g)); err != nil || !ok {
			t.Errorf("family %s seed %d: cross-check: ok=%v err=%v", fam, seed, ok, err)
		}
	}
}

// TestRejectsCorruptedTrees: for every family and corruption density k the
// oracles reject the corrupted tree, agree with IsMST, and produce valid
// witnesses.
func TestRejectsCorruptedTrees(t *testing.T) {
	const seed = int64(23)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 16} {
			tree, err := gen.Generate(k, seed+int64(k))
			if err != nil {
				t.Fatalf("family %s k=%d seed %d: %v", fam, k, seed, err)
			}
			if !graph.IsSpanningTree(g, tree) {
				t.Fatalf("family %s k=%d seed %d: corrupted output is not spanning", fam, k, seed)
			}
			if graph.IsMST(g, tree, graph.ByWeight(g)) {
				t.Fatalf("family %s k=%d seed %d: corrupted tree is still minimal", fam, k, seed)
			}
			tl := TLightness(g, tree, graph.ByWeight(g))
			uf := CycleUnionFind(g, tree, graph.ByWeight(g))
			if tl.IsMST || uf.IsMST {
				t.Fatalf("family %s k=%d seed %d: oracle accepted a corrupted tree (tlight=%v uf=%v)",
					fam, k, seed, tl.IsMST, uf.IsMST)
			}
			// Witness validity: the T-light edge must be strictly lighter
			// than the claimed heaviest path edge, and both must have the
			// right tree membership.
			inTree := make(map[int]bool, len(tree))
			for _, e := range tree {
				inTree[e] = true
			}
			if inTree[tl.ViolatingEdge] || !inTree[tl.TreeEdge] {
				t.Errorf("family %s k=%d seed %d: tlight witness has wrong membership: %+v", fam, k, seed, tl)
			}
			if !graph.ByWeight(g)(tl.ViolatingEdge, tl.TreeEdge) {
				t.Errorf("family %s k=%d seed %d: tlight witness not lighter than its path edge: %+v", fam, k, seed, tl)
			}
			if inTree[uf.ViolatingEdge] {
				t.Errorf("family %s k=%d seed %d: union-find witness is a tree edge: %+v", fam, k, seed, uf)
			}
			if ok, err := CrossCheck(g, tree, graph.ByWeight(g)); err != nil || ok {
				t.Errorf("family %s k=%d seed %d: cross-check: ok=%v err=%v", fam, k, seed, ok, err)
			}
		}
	}
}

// TestModifiedOrderDuplicateWeights: under duplicate raw weights the ω′
// order keeps the oracles sound — they must accept the candidate tree iff
// the reference IsMST does, for both a Kruskal tree and a corrupted one.
func TestModifiedOrderDuplicateWeights(t *testing.T) {
	const seed = int64(31)
	g0 := graph.RandomConnected(48, 120, seed)
	g := graph.WithDuplicateWeights(g0, 5, seed)
	for _, candidate := range [][]int{
		mustKruskal(t, g, graph.ModifiedOrder(g, func(int) bool { return false })),
		mustKruskal(t, g0, graph.ByWeight(g0)), // MST of g0, generally not of g
	} {
		inTree := make(map[int]bool, len(candidate))
		for _, e := range candidate {
			inTree[e] = true
		}
		less := graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
		want := graph.IsMST(g, candidate, less)
		got, err := CrossCheck(g, candidate, less)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: oracles say %v, reference says %v", seed, got, want)
		}
	}
}

func mustKruskal(t *testing.T, g *graph.Graph, less graph.EdgeOrder) []int {
	t.Helper()
	tree, err := graph.Kruskal(g, less)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRejectsNonSpanningInput: garbage edge sets (wrong size, a cycle) are
// rejected as non-spanning by both oracles, without witnesses.
func TestRejectsNonSpanningInput(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	mst := mustKruskal(t, g, graph.ByWeight(g))
	short := mst[:len(mst)-1]
	cyclic := append(append([]int(nil), short...), nonTreeEdge(g, mst))
	for name, bad := range map[string][]int{"short": short, "cyclic-maybe": cyclic} {
		for oname, verdict := range map[string]Verdict{
			"tlight": TLightness(g, bad, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, bad, graph.ByWeight(g)),
		} {
			if verdict.IsMST {
				t.Errorf("%s/%s: accepted a non-tree edge set", name, oname)
			}
		}
	}
}

func nonTreeEdge(g *graph.Graph, tree []int) int {
	inTree := make(map[int]bool, len(tree))
	for _, e := range tree {
		inTree[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if !inTree[e] {
			return e
		}
	}
	return -1
}

// BenchmarkOracles is the centralized-baseline cost benchmark: one full
// double-oracle audit of an MST at n=1024, m=3n.
func BenchmarkOracles(b *testing.B) {
	g := graph.RandomConnected(1024, 3*1024, 1)
	mst, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossCheck(g, mst, graph.ByWeight(g)); err != nil {
			b.Fatal(err)
		}
	}
}
