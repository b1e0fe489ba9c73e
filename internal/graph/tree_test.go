package graph

import (
	"testing"
	"testing/quick"
)

func mustTree(t *testing.T, g *Graph, edges []int, root int) *Tree {
	t.Helper()
	tr, err := TreeFromEdges(g, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeFromEdgesPath(t *testing.T) {
	g := Path(5, 2)
	tree, err := Kruskal(g, ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTree(t, g, tree, 0)
	if tr.Root != 0 || tr.Depth(4) != 4 || tr.Height() != 4 {
		t.Fatalf("bad tree shape: depth(4)=%d height=%d", tr.Depth(4), tr.Height())
	}
	if tr.SubtreeSize(0) != 5 || tr.SubtreeSize(4) != 1 {
		t.Fatal("subtree sizes wrong")
	}
	if len(tr.DFSOrder()) != 5 || tr.DFSOrder()[0] != 0 {
		t.Fatal("dfs order wrong")
	}
}

func TestTreeRejectsBadParents(t *testing.T) {
	g := Path(4, 2)
	// Cycle: 1->2, 2->1.
	if _, err := NewTree(g, 0, []int{-1, 2, 1, 2}); err == nil {
		t.Fatal("cycle accepted")
	}
	// Parent not adjacent.
	if _, err := NewTree(g, 0, []int{-1, 0, 0, 2}); err == nil {
		t.Fatal("non-adjacent parent accepted")
	}
	// Root with a parent.
	if _, err := NewTree(g, 0, []int{1, 0, 1, 2}); err == nil {
		t.Fatal("rooted cycle accepted")
	}
}

func TestTreeDFSOrderFollowsPorts(t *testing.T) {
	// Star rooted at center: DFS must visit leaves in port order.
	g := Star(5, 3)
	edges := make([]int, g.M())
	for i := range edges {
		edges[i] = i
	}
	tr := mustTree(t, g, edges, 0)
	order := tr.DFSOrder()
	if order[0] != 0 {
		t.Fatal("root not first")
	}
	for i := 1; i < len(order); i++ {
		if g.PortTo(0, order[i]) != i-1 {
			t.Fatalf("leaf %d visited out of port order", order[i])
		}
	}
}

func TestTreeEdgeSetRoundTrip(t *testing.T) {
	g := RandomConnected(12, 24, 6)
	tree, _ := Kruskal(g, ByWeight(g))
	tr := mustTree(t, g, tree, 3)
	got := tr.EdgeSet()
	if len(got) != len(tree) {
		t.Fatalf("edge set size %d, want %d", len(got), len(tree))
	}
	for i := range got {
		if got[i] != tree[i] {
			t.Fatalf("edge set %v, want %v", got, tree)
		}
	}
}

// Property: for random trees, depths are consistent with parent pointers,
// subtree sizes sum to n at the root, and DFS visits each node exactly once.
func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%20)
		g := randomTree(n, seed)
		edges := make([]int, g.M())
		for i := range edges {
			edges[i] = i
		}
		root := int(uint64(seed) % uint64(n))
		tr, err := TreeFromEdges(g, edges, root)
		if err != nil {
			return false
		}
		if tr.SubtreeSize(root) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range tr.DFSOrder() {
			if seen[v] {
				return false
			}
			seen[v] = true
			if v != root && tr.Depth(v) != tr.Depth(tr.Parent[v])+1 {
				return false
			}
		}
		return len(tr.DFSOrder()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
