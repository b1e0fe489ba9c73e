// Package oracle provides centralized ground-truth MST verifiers that
// cross-check every distributed verdict in an adversarial campaign run.
// Two independent formulations of minimality are implemented:
//
//   - TLightness: T is minimal iff no non-tree edge beats the heaviest tree
//     edge on its tree path (no edge is "T-light", the formulation of
//     Kor–Korman–Peleg). Every path maximum is answered offline by one
//     Tarjan LCA pass over a Kruskal reconstruction tree of T, in
//     O(m·α(n) + n log n). The naive per-edge DFS, O(m·n), survives only as
//     the reference the package tests check it against.
//   - CycleUnionFind: a Kruskal-style greedy sweep over a union-find in
//     ascending edge order. Under a total order the greedy forest is the
//     unique MST, so T is minimal iff every greedily selected edge is a
//     tree edge.
//
// Both take an arbitrary graph.EdgeOrder, so they run on raw distinct
// weights (ByWeight) or the ω′ transform. CrossCheck runs both and treats a
// disagreement as an implementation bug (an error), never as a verdict —
// that is what makes the pair a usable audit: a campaign outcome is only
// accepted against two independently derived answers that concur.
package oracle

import (
	"fmt"
	"sort"

	"ssmst/internal/graph"
)

// Verdict is one oracle's answer, with a witness when the tree is rejected.
type Verdict struct {
	IsMST    bool
	Spanning bool // false: not even a spanning tree (witness fields unset)
	// ViolatingEdge is a non-tree edge proving non-minimality: for
	// TLightness a T-light edge (lighter than TreeEdge, the heaviest tree
	// edge on its tree path); for CycleUnionFind a greedily selected edge
	// the tree does not contain (a cut-property violation; TreeEdge is -1).
	ViolatingEdge int
	TreeEdge      int
}

// TLightness answers whether treeEdges is a minimum spanning tree of g
// under less, by the T-lightness formulation: no non-tree edge may be
// lighter than the heaviest tree edge on the tree path between its
// endpoints. All path maxima are answered offline, at once:
//
//  1. sort the n−1 tree edges by less;
//  2. build the Kruskal reconstruction tree: the leaves are the nodes, and
//     internal node n+i joins the two components the i-th sorted tree edge
//     connects, so the LCA of u and v is the heaviest edge on the u–v path;
//  3. answer the LCA of every non-tree edge's endpoints in one Tarjan pass,
//     an iterative post-order over the reconstruction tree;
//  4. scan the non-tree edges by ascending id and report the first T-light
//     one, with its heaviest path edge as TreeEdge.
//
// O(m·α(n) + n log n) time over flat int32 arrays. The witness is the one a
// per-edge path search in ascending edge order finds; the package tests keep
// that naive O(m·n) search as the reference TLightness must match.
func TLightness(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	if !graph.IsSpanningTree(g, treeEdges) {
		return v
	}
	v.Spanning = true
	n, m := g.N(), g.M()
	inTree := make([]bool, m)
	sorted := make([]int32, len(treeEdges))
	for i, e := range treeEdges {
		inTree[e] = true
		sorted[i] = int32(e)
	}
	sort.Slice(sorted, func(i, j int) bool { return less(int(sorted[i]), int(sorted[j])) })

	// Reconstruction tree: up[x] is x's parent (-1 at the root) and the
	// children of n+i are kids[2i] and kids[2i+1]. comps.top maps a
	// component to the reconstruction-tree node standing for it.
	root := int32(2*n - 2)
	up := make([]int32, root+1)
	up[root] = -1
	kids := make([]int32, 2*(n-1))
	comps := newForest(n)
	for i, e := range sorted {
		ed := g.Edge(int(e))
		x := int32(n + i)
		a, b := comps.find(int32(ed.U)), comps.find(int32(ed.V))
		kids[2*i], kids[2*i+1] = comps.top[a], comps.top[b]
		up[comps.top[a]], up[comps.top[b]] = x, x
		comps.union(a, b, x)
	}

	// The non-tree edges incident to node u are query[start[u]:start[u+1]].
	start := make([]int32, n+1)
	for e := 0; e < m; e++ {
		if !inTree[e] {
			ed := g.Edge(e)
			start[ed.U+1]++
			start[ed.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	query := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for e := 0; e < m; e++ {
		if !inTree[e] {
			ed := g.Edge(e)
			query[fill[ed.U]], query[fill[ed.V]] = int32(e), int32(e)
			fill[ed.U]++
			fill[ed.V]++
		}
	}

	// Tarjan's offline LCA as an iterative post-order. A finished node's set
	// joins its parent's and takes the parent as its top, so the top of a
	// finished leaf's set is its lowest ancestor still open. A query is
	// answered when its second endpoint finishes. An internal node is pushed
	// as x on first visit and as ^x once its children are pushed.
	lca := make([]int32, m)
	done := make([]bool, n)
	sets := newForest(int(root) + 1)
	stack := []int32{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		if x >= int32(n) {
			stack[len(stack)-1] = ^x
			i := 2 * (x - int32(n))
			stack = append(stack, kids[i], kids[i+1])
			continue
		}
		stack = stack[:len(stack)-1]
		if x >= 0 {
			done[x] = true
			for _, e := range query[start[x]:start[x+1]] {
				ed := g.Edge(int(e))
				if peer := ed.U ^ ed.V ^ int(x); done[peer] {
					lca[e] = sets.top[sets.find(int32(peer))]
				}
			}
		} else {
			x = ^x
		}
		if p := up[x]; p >= 0 {
			sets.union(sets.find(x), sets.find(p), p)
		}
	}

	for e := 0; e < m; e++ {
		if inTree[e] {
			continue
		}
		// e is T-light iff it is strictly lighter than the path maximum.
		if heaviest := int(sorted[lca[e]-int32(n)]); less(e, heaviest) {
			v.ViolatingEdge, v.TreeEdge = e, heaviest
			return v
		}
	}
	v.IsMST = true
	return v
}

// forest is TLightness's own disjoint-set forest over flat int32 arrays
// (union by rank, path halving). top[r] labels the set rooted at r with a
// reconstruction-tree node.
type forest struct {
	parent, top []int32
	rank        []uint8
}

func newForest(n int) forest {
	f := forest{parent: make([]int32, n), top: make([]int32, n), rank: make([]uint8, n)}
	for i := range f.parent {
		f.parent[i], f.top[i] = int32(i), int32(i)
	}
	return f
}

func (f forest) find(x int32) int32 {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

// union joins the sets rooted at a and b and labels the result top.
func (f forest) union(a, b, top int32) {
	if f.rank[a] < f.rank[b] {
		a, b = b, a
	}
	f.parent[b] = a
	if f.rank[a] == f.rank[b] {
		f.rank[a]++
	}
	f.top[a] = top
}

// CycleUnionFind answers whether treeEdges is a minimum spanning tree of g
// under less, by the greedy cut formulation: sweep all edges ascending over
// a union-find; each edge joining two components belongs to the unique MST
// of the total order, so the first selected non-tree edge refutes
// minimality. O(m log m).
func CycleUnionFind(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	if !graph.IsSpanningTree(g, treeEdges) {
		return v
	}
	v.Spanning = true
	inTree := make([]bool, g.M())
	for _, e := range treeEdges {
		inTree[e] = true
	}
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range order {
		ed := g.Edge(e)
		ru, rv := find(ed.U), find(ed.V)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		if !inTree[e] {
			v.ViolatingEdge = e
			return v
		}
	}
	v.IsMST = true
	return v
}

// CrossCheck runs both oracles and returns their shared verdict. The two
// disagreeing is an internal inconsistency (a bug in one formulation), so
// it is reported as an error, never folded into a verdict. A tree edge id
// outside [0, M) is malformed input and is an error too.
func CrossCheck(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) (bool, error) {
	for _, e := range treeEdges {
		if e < 0 || e >= g.M() {
			return false, fmt.Errorf("oracle: tree edge id %d out of range [0, %d)", e, g.M())
		}
	}
	a := TLightness(g, treeEdges, less)
	b := CycleUnionFind(g, treeEdges, less)
	if a.IsMST != b.IsMST || a.Spanning != b.Spanning {
		return false, fmt.Errorf("oracle: verdicts disagree: T-lightness {mst=%v spanning=%v witness=%d} vs union-find {mst=%v spanning=%v witness=%d}",
			a.IsMST, a.Spanning, a.ViolatingEdge, b.IsMST, b.Spanning, b.ViolatingEdge)
	}
	return a.IsMST, nil
}
