package graph

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestTreeRejectsBadParents: NewTree rejects every parent array that is not
// a tree rooted at root — parent cycles (a 2-cycle repeats one edge, a
// 3-cycle closes a cycle of distinct edges), a non-adjacent or out-of-range
// parent, a root with a parent, and a wrong length.
func TestTreeRejectsBadParents(t *testing.T) {
	g := Path(4, 2)
	ring := Ring(5, 2)
	for _, tc := range []struct {
		name   string
		g      *Graph
		parent []int
	}{
		{"2-cycle", g, []int{-1, 2, 1, 2}},
		{"3-cycle", ring, []int{-1, 2, 3, 1, 0}},
		{"non-adjacent parent", g, []int{-1, 0, 0, 2}},
		{"parent out of range", g, []int{-1, 0, 4, 2}},
		{"negative parent", g, []int{-1, 0, -1, 2}},
		{"rooted cycle", g, []int{1, 0, 1, 2}},
		{"length", g, []int{-1, 0, 1}},
	} {
		if _, err := NewTree(tc.g, 0, tc.parent); err == nil {
			t.Errorf("%s: NewTree accepted %v", tc.name, tc.parent)
		}
	}
}

// TestTreeFromEdgesRejectsNonTrees: TreeFromEdges rejects every edge set
// that is not a spanning tree — a repeated edge id, n−1 edges that close a
// cycle, an edge id out of range, and too few or too many edges.
func TestTreeFromEdgesRejectsNonTrees(t *testing.T) {
	// A triangle 0–1–2 (edges 0, 1, 2) with a pendant path 2–3–4 (edges 3, 4).
	g := New(5, nil)
	for _, uv := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}} {
		g.MustAddEdge(uv[0], uv[1], Weight(g.M()+1))
	}
	for _, tc := range []struct {
		name  string
		edges []int
	}{
		{"repeated id", []int{0, 1, 3, 3}},
		{"repeated id, n edges", []int{0, 1, 3, 4, 4}},
		{"cycle", []int{0, 1, 2, 3}},
		{"id out of range", []int{0, 1, 3, 5}},
		{"negative id", []int{0, 1, -1, 3}},
		{"too few", []int{0, 1, 3}},
		{"too many", []int{0, 1, 2, 3, 4}},
	} {
		if _, err := TreeFromEdges(g, tc.edges, 0); err == nil {
			t.Errorf("%s: TreeFromEdges accepted %v", tc.name, tc.edges)
		}
	}
	if _, err := TreeFromEdges(New(0, nil), nil, 0); err == nil {
		t.Error("TreeFromEdges rooted an empty graph")
	}
}

// refTree derives a rooted tree from parent pointers the direct way, one
// per-node slice at a time: every parent edge by an EdgeBetween scan, every
// child list by a scan of the parent's ports, and depths, subtree sizes and
// the preorder by one DFS over the child lists. It is the reference the one
// builder is checked against.
type refTree struct {
	parentEdge, depth, size, dfsOrder []int
	children                          [][]int
}

func newRefTree(g *Graph, root int, parent []int) *refTree {
	n := g.N()
	r := &refTree{parentEdge: make([]int, n), depth: make([]int, n), size: make([]int, n), children: make([][]int, n)}
	for v, p := range parent {
		r.parentEdge[v] = -1
		if v != root {
			r.parentEdge[v] = g.EdgeBetween(v, p)
		}
	}
	for v := range r.children {
		for _, h := range g.Ports(v) {
			if parent[h.Peer] == v {
				r.children[v] = append(r.children[v], h.Peer)
			}
		}
	}
	type frame struct{ v, ci int }
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ci == 0 {
			r.dfsOrder = append(r.dfsOrder, f.v)
		}
		if f.ci < len(r.children[f.v]) {
			c := r.children[f.v][f.ci]
			f.ci++
			r.depth[c] = r.depth[f.v] + 1
			stack = append(stack, frame{c, 0})
			continue
		}
		r.size[f.v] = 1
		for _, c := range r.children[f.v] {
			r.size[f.v] += r.size[c]
		}
		stack = stack[:len(stack)-1]
	}
	return r
}

// refParents roots the edges inTree marks at root by a DFS over g's ports:
// the parent array, computed without the Tree code.
func refParents(g *Graph, inTree []bool, root int) []int {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -2
	}
	parent[root] = -1
	for stack := []int{root}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Ports(v) {
			if inTree[h.Edge] && parent[h.Peer] == -2 {
				parent[h.Peer] = v
				stack = append(stack, h.Peer)
			}
		}
	}
	return parent
}

// TestTreeConstructorsMatchReference: on random trees — bare, and the MST
// of a random graph with non-tree edges between — rooted at every node,
// NewTree and TreeFromEdges (edges in shuffled order) must both equal the
// reference derivation in every field and accessor.
func TestTreeConstructorsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{1, 2, 3, 9, 33} {
			bare := randomTree(n, seed)
			dense := RandomConnected(n, 2*n, seed)
			for _, g := range []*Graph{bare, dense} {
				edges, err := Kruskal(g, ByWeight(g))
				if err != nil {
					t.Fatal(err)
				}
				inTree := make([]bool, g.M())
				for _, e := range edges {
					inTree[e] = true
				}
				rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for root := 0; root < n; root++ {
					parent := refParents(g, inTree, root)
					ref := newRefTree(g, root, parent)
					fromParents, err := NewTree(g, root, parent)
					if err != nil {
						t.Fatal(err)
					}
					fromEdges, err := TreeFromEdges(g, edges, root)
					if err != nil {
						t.Fatal(err)
					}
					for _, tr := range []*Tree{fromParents, fromEdges} {
						if err := matchRef(tr, root, parent, ref); err != nil {
							t.Fatalf("seed %d n=%d m=%d root %d: %v", seed, n, g.M(), root, err)
						}
					}
				}
			}
		}
	}
}

func matchRef(tr *Tree, root int, parent []int, ref *refTree) error {
	switch {
	case tr.Root != root:
		return fmt.Errorf("root %d", tr.Root)
	case !slices.Equal(tr.Parent, parent):
		return fmt.Errorf("Parent %v, want %v", tr.Parent, parent)
	case !slices.Equal(tr.ParentEdge, ref.parentEdge):
		return fmt.Errorf("ParentEdge %v, want %v", tr.ParentEdge, ref.parentEdge)
	case !slices.Equal(tr.DFSOrder(), ref.dfsOrder):
		return fmt.Errorf("DFSOrder %v, want %v", tr.DFSOrder(), ref.dfsOrder)
	}
	for v := range parent {
		switch {
		case !slices.Equal(tr.Children(v), ref.children[v]):
			return fmt.Errorf("Children(%d) %v, want %v", v, tr.Children(v), ref.children[v])
		case tr.Depth(v) != ref.depth[v]:
			return fmt.Errorf("Depth(%d) %d, want %d", v, tr.Depth(v), ref.depth[v])
		case tr.SubtreeSize(v) != ref.size[v]:
			return fmt.Errorf("SubtreeSize(%d) %d, want %d", v, tr.SubtreeSize(v), ref.size[v])
		}
	}
	return nil
}

// TestTreeFromEdgesAllocs gates the one builder's allocations: rooting a
// 4096-node tree allocates a fixed handful of per-node arrays, not one
// child slice per node.
func TestTreeFromEdgesAllocs(t *testing.T) {
	g := RandomConnected(4096, 8192, 1)
	edges, err := Kruskal(g, ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := TreeFromEdges(g, edges, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Fatalf("TreeFromEdges allocates %.0f times at n=4096, want < 64", allocs)
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
