package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKruskalPath(t *testing.T) {
	g := Path(6, 1)
	tree, err := Kruskal(g, ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 5 {
		t.Fatalf("tree size %d", len(tree))
	}
	if !IsSpanningTree(g, tree) || !IsMST(g, tree, ByWeight(g)) {
		t.Fatal("path MST wrong")
	}
}

// TestKruskalEmptyGraph: the MST of a 0-node graph is the empty tree.
func TestKruskalEmptyGraph(t *testing.T) {
	g := New(0, nil)
	tree, err := Kruskal(g, ByWeight(g))
	if err != nil || len(tree) != 0 {
		t.Fatalf("got (%v, %v), want an empty tree", tree, err)
	}
}

func TestKruskalDisconnected(t *testing.T) {
	g := New(4, nil)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 2)
	if _, err := Kruskal(g, ByWeight(g)); err == nil {
		t.Fatal("expected error on disconnected graph")
	}
}

func TestKruskalMatchesBruteForce(t *testing.T) {
	// On small graphs, compare Kruskal's tree weight with exhaustive search
	// over all spanning trees (via edge subsets).
	g := RandomConnected(6, 9, 11)
	tree, err := Kruskal(g, ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	best := mstWeight(g, tree)
	n1 := g.N() - 1
	m := g.M()
	idx := make([]int, n1)
	var rec func(start, k int)
	var minW Weight = 1 << 60
	rec = func(start, k int) {
		if k == n1 {
			sel := append([]int(nil), idx...)
			if IsSpanningTree(g, sel) {
				if w := mstWeight(g, sel); w < minW {
					minW = w
				}
			}
			return
		}
		for e := start; e < m; e++ {
			idx[k] = e
			rec(e+1, k+1)
		}
	}
	rec(0, 0)
	if best != minW {
		t.Fatalf("Kruskal weight %d, brute force %d", best, minW)
	}
}

func TestIsMSTRejectsNonMinimal(t *testing.T) {
	// Triangle with weights 1,2,3: the tree {2,3} is spanning but not minimal.
	g := New(3, nil)
	e1 := g.MustAddEdge(0, 1, 1)
	e2 := g.MustAddEdge(1, 2, 2)
	e3 := g.MustAddEdge(0, 2, 3)
	if !IsMST(g, []int{e1, e2}, ByWeight(g)) {
		t.Fatal("true MST rejected")
	}
	if IsMST(g, []int{e2, e3}, ByWeight(g)) {
		t.Fatal("non-minimal tree accepted")
	}
	if IsMST(g, []int{e1}, ByWeight(g)) {
		t.Fatal("non-spanning set accepted")
	}
}

func TestModifiedOrderPreservesMSTness(t *testing.T) {
	// For graphs with duplicate weights: T is an MST under ω iff T is an
	// MST under ω′ (the property the standard tie-break does not give).
	for seed := int64(0); seed < 20; seed++ {
		g := WithDuplicateWeights(RandomConnected(8, 16, seed), 4)
		// Enumerate a few candidate spanning trees by Kruskal under random
		// edge permutations of equal-weight groups.
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(g.M())
			less := func(e1, e2 int) bool {
				a, b := g.Edge(e1), g.Edge(e2)
				if a.W != b.W {
					return a.W < b.W
				}
				return perm[e1] < perm[e2]
			}
			cand, err := Kruskal(g, less)
			if err != nil {
				t.Fatal(err)
			}
			inT := make(map[int]bool, len(cand))
			for _, e := range cand {
				inT[e] = true
			}
			mod := ModifiedOrder(g, func(e int) bool { return inT[e] })
			// cand is an MST under ω (it came from a valid tie-break), so it
			// must be an MST under ω′ as well.
			if !IsMST(g, cand, mod) {
				t.Fatalf("seed %d: MST under ω not MST under ω′", seed)
			}
			// And ω′ must be a total order that Kruskal agrees with.
			k2, err := Kruskal(g, mod)
			if err != nil {
				t.Fatal(err)
			}
			if mstWeight(g, k2) != mstWeight(g, cand) {
				t.Fatalf("seed %d: ω′ changed MST weight", seed)
			}
		}
	}
}

func TestModifiedOrderRejectsNonMST(t *testing.T) {
	// A non-minimal tree must not become "minimal" under its own ω′.
	g := New(3, nil)
	g.MustAddEdge(0, 1, 1)
	e2 := g.MustAddEdge(1, 2, 2)
	e3 := g.MustAddEdge(0, 2, 3)
	cand := []int{e2, e3}
	inT := map[int]bool{e2: true, e3: true}
	mod := ModifiedOrder(g, func(e int) bool { return inT[e] })
	if IsMST(g, cand, mod) {
		t.Fatal("non-MST accepted under ω′")
	}
}

func TestFragmentMinOutEdge(t *testing.T) {
	g := New(4, nil)
	g.MustAddEdge(0, 1, 5)
	e := g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 7)
	g.MustAddEdge(0, 3, 9)
	member := func(v int) bool { return v <= 1 }
	if got := FragmentMinOutEdge(g, member, ByWeight(g)); got != e {
		t.Fatalf("min out edge = %d, want %d", got, e)
	}
	all := func(v int) bool { return true }
	if got := FragmentMinOutEdge(g, all, ByWeight(g)); got != -1 {
		t.Fatalf("whole graph has out edge %d", got)
	}
}

// Property: on random connected graphs with distinct weights, Kruskal's tree
// passes IsMST and has the unique minimum weight among 50 random spanning
// trees.
func TestKruskalProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%10)
		m := n - 1 + int(uint64(seed)%uint64(n))
		g := RandomConnected(n, m, seed)
		tree, err := Kruskal(g, ByWeight(g))
		if err != nil {
			return false
		}
		if !IsMST(g, tree, ByWeight(g)) {
			return false
		}
		w := mstWeight(g, tree)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for i := 0; i < 20; i++ {
			perm := rng.Perm(g.M())
			randTree, err := Kruskal(g, func(a, b int) bool { return perm[a] < perm[b] })
			if err != nil {
				return false
			}
			if mstWeight(g, randTree) < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mstWeight returns the total raw weight of an edge set.
func mstWeight(g *Graph, edges []int) Weight {
	var w Weight
	for _, e := range edges {
		w += g.Edge(e).W
	}
	return w
}
