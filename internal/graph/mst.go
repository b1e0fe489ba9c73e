package graph

import (
	"fmt"
	"sort"
)

// This file implements Kruskal over a union-find, the spanning-tree test,
// the cycle-property reference IsMST the tests check verdicts against
// (production verdicts come from internal/oracle), and the distinct-weight
// transform ω′ of Kor et al. described in footnote 1 of the paper:
// ω′(e) = ⟨ω(e), 1−Y(e), IDmin(e), IDmax(e)⟩, where Y(e) indicates
// membership in the candidate tree T. Under ω′ all weights are distinct and
// T is an MST under ω iff T is an MST under ω′ — which is the property
// verification needs (the standard ID-only tie-break does not preserve it).

// EdgeOrder is a strict weak order on edge indices of a graph. All MST code
// in the repository compares edges only through an EdgeOrder, so the same
// algorithms run on raw distinct weights or on the ω′ transform.
type EdgeOrder func(e1, e2 int) bool

// ByWeight returns the natural order on raw weights with an index tie-break
// (valid as a total order; correct for MST only when weights are distinct).
func ByWeight(g *Graph) EdgeOrder {
	return func(e1, e2 int) bool {
		a, b := g.Edge(e1), g.Edge(e2)
		if a.W != b.W {
			return a.W < b.W
		}
		return e1 < e2
	}
}

// ModifiedOrder returns the ω′ order of Kor et al. for candidate tree
// membership inTree: first raw weight, then tree edges before non-tree edges,
// then the smaller endpoint identity, then the larger one. The resulting
// order is total whenever node identities are unique.
func ModifiedOrder(g *Graph, inTree func(e int) bool) EdgeOrder {
	return func(e1, e2 int) bool {
		a, b := g.Edge(e1), g.Edge(e2)
		if a.W != b.W {
			return a.W < b.W
		}
		y1, y2 := 0, 0
		if inTree(e1) {
			y1 = 1
		}
		if inTree(e2) {
			y2 = 1
		}
		if y1 != y2 {
			return y1 > y2 // 1−Y smaller for tree edges
		}
		min1, max1 := endpointIDs(g, e1)
		min2, max2 := endpointIDs(g, e2)
		if min1 != min2 {
			return min1 < min2
		}
		return max1 < max2
	}
}

func endpointIDs(g *Graph, e int) (lo, hi NodeID) {
	ed := g.Edge(e)
	a, b := g.ID(ed.U), g.ID(ed.V)
	if a < b {
		return a, b
	}
	return b, a
}

// unionFind is a standard disjoint-set structure with path compression and
// union by rank.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// Kruskal returns the edge indices of the minimum spanning tree of a
// connected graph under the given order, sorted ascending by edge index.
func Kruskal(g *Graph, less EdgeOrder) ([]int, error) {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
	uf := newUnionFind(g.N())
	tree := make([]int, 0, max(g.N()-1, 0))
	for _, e := range order {
		ed := g.Edge(e)
		if uf.union(ed.U, ed.V) {
			tree = append(tree, e)
		}
	}
	if len(tree) != g.N()-1 && g.N() > 0 {
		return nil, fmt.Errorf("graph: not connected (tree has %d of %d edges)", len(tree), g.N()-1)
	}
	sort.Ints(tree)
	return tree, nil
}

// IsSpanningTree reports whether the edge set forms a spanning tree of g.
// An edge id outside [0, M) makes it false.
func IsSpanningTree(g *Graph, edges []int) bool {
	if len(edges) != g.N()-1 {
		return false
	}
	uf := newUnionFind(g.N())
	for _, e := range edges {
		if e < 0 || e >= g.M() {
			return false
		}
		ed := g.Edge(e)
		if !uf.union(ed.U, ed.V) {
			return false
		}
	}
	return true
}

// IsMST reports whether the edge set is a minimum spanning tree of g under
// the given order, using the cycle property: for every non-tree edge e, e
// must be the unique maximum on the tree path between its endpoints. This
// check is valid for any total order, including ω′. It walks every path,
// O(m·h) for tree height h, and serves only as the tests' reference (the
// oracle package's included); production verdicts come from
// oracle.TLightness.
func IsMST(g *Graph, edges []int, less EdgeOrder) bool {
	t, err := TreeFromEdges(g, edges, 0)
	if err != nil {
		return false
	}
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		if t.ParentEdge[ed.U] == e || t.ParentEdge[ed.V] == e {
			continue // a tree edge
		}
		if !t.WalkPath(ed.U, ed.V, func(x int) bool { return less(t.ParentEdge[x], e) }) {
			return false
		}
	}
	return true
}

// FragmentMinOutEdge returns the minimum outgoing edge (under less) of the
// node set frag (given as a membership predicate over node indices), or -1
// if no outgoing edge exists. It scans every edge, so it is the oracle
// against which the marker's per-fragment ω(F) is tested.
func FragmentMinOutEdge(g *Graph, member func(v int) bool, less EdgeOrder) int {
	best := -1
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		if member(ed.U) == member(ed.V) {
			continue
		}
		if best < 0 || less(e, best) {
			best = e
		}
	}
	return best
}
