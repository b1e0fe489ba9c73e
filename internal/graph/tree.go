package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Tree is a rooted spanning tree of a graph, represented distributively as
// the paper's components c(v): each non-root node stores a single parent
// pointer (§2.1). Tree additionally caches children lists (read off each
// parent's port list, in port order), depths, subtree sizes and a DFS
// order, which the marker algorithms consume.
type Tree struct {
	G          *Graph
	Root       int
	Parent     []int // Parent[v] = parent node index, -1 for root
	ParentEdge []int // ParentEdge[v] = edge index to parent, -1 for root

	children [][]int
	depth    []int
	size     []int
	dfsOrder []int // preorder: dfsOrder[i] = i-th node visited
}

// NewTree builds a rooted tree from parent pointers over g. parent[root]
// must be -1 and every other node must reach root by following pointers.
func NewTree(g *Graph, root int, parent []int) (*Tree, error) {
	if len(parent) != g.N() {
		return nil, errors.New("graph: parent slice length mismatch")
	}
	t := &Tree{G: g, Root: root, Parent: append([]int(nil), parent...)}
	t.ParentEdge = make([]int, g.N())
	t.children = make([][]int, g.N())
	for v, p := range t.Parent {
		if v == root {
			if p != -1 {
				return nil, fmt.Errorf("graph: root %d has parent %d", root, p)
			}
			t.ParentEdge[v] = -1
			continue
		}
		if p < 0 || p >= g.N() {
			return nil, fmt.Errorf("graph: node %d parent %d out of range", v, p)
		}
		e := g.EdgeBetween(v, p)
		if e < 0 {
			return nil, fmt.Errorf("graph: node %d parent %d not adjacent", v, p)
		}
		t.ParentEdge[v] = e
	}
	// Children in port order at the parent, so DFS order is reproducible
	// from local information only (as the distributed DFS of §6.3.6 is).
	for v := range t.children {
		for _, h := range g.Ports(v) {
			if t.Parent[h.Peer] == v {
				t.children[v] = append(t.children[v], h.Peer)
			}
		}
	}
	t.depth = make([]int, g.N())
	t.size = make([]int, g.N())
	t.dfsOrder = make([]int, 0, g.N())
	if err := t.computeOrders(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) computeOrders() error {
	type frame struct{ v, ci int }
	stack := []frame{{t.Root, 0}}
	t.depth[t.Root] = 0
	seen := make([]bool, t.G.N())
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ci == 0 {
			if seen[f.v] {
				return fmt.Errorf("graph: cycle through node %d", f.v)
			}
			seen[f.v] = true
			t.dfsOrder = append(t.dfsOrder, f.v)
		}
		if f.ci < len(t.children[f.v]) {
			c := t.children[f.v][f.ci]
			f.ci++
			t.depth[c] = t.depth[f.v] + 1
			stack = append(stack, frame{c, 0})
			continue
		}
		// post-order: subtree size
		t.size[f.v] = 1
		for _, c := range t.children[f.v] {
			t.size[f.v] += t.size[c]
		}
		stack = stack[:len(stack)-1]
	}
	if len(t.dfsOrder) != t.G.N() {
		return fmt.Errorf("graph: tree spans %d of %d nodes", len(t.dfsOrder), t.G.N())
	}
	return nil
}

// Children returns v's children in port order; owned by the tree.
func (t *Tree) Children(v int) []int { return t.children[v] }

// Depth returns the hop distance from the root to v.
func (t *Tree) Depth(v int) int { return t.depth[v] }

// SubtreeSize returns the number of nodes in v's subtree (including v).
func (t *Tree) SubtreeSize(v int) int { return t.size[v] }

// Height returns the height of the tree (max depth).
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// DFSOrder returns the preorder sequence of nodes starting at the root,
// descending into children in port order; owned by the tree.
func (t *Tree) DFSOrder() []int { return t.dfsOrder }

// EdgeSet returns the tree's edge indices sorted ascending.
func (t *Tree) EdgeSet() []int {
	es := make([]int, 0, t.G.N()-1)
	for v, e := range t.ParentEdge {
		if v != t.Root {
			es = append(es, e)
		}
	}
	slices.Sort(es)
	return es
}

// TreeFromEdges roots the given spanning-tree edge set at root and returns
// the Tree, or an error if the edges do not form a spanning tree.
func TreeFromEdges(g *Graph, edges []int, root int) (*Tree, error) {
	if !IsSpanningTree(g, edges) {
		return nil, errors.New("graph: edge set is not a spanning tree")
	}
	inTree := make([]bool, g.M())
	for _, e := range edges {
		inTree[e] = true
	}
	t := &Tree{G: g, Root: root, Parent: make([]int, g.N()), ParentEdge: make([]int, g.N()), depth: make([]int, g.N())}
	t.rootAlong(inTree)
	return NewTree(g, root, t.Parent)
}

// rootAlong is the one rooting pass over a spanning tree: a BFS from t.Root
// over t.G's own port lists that follows the edges inTree marks and fills
// t.Parent and t.ParentEdge (-1 at the root) and t.depth. That is all
// WalkPath needs, so a Tree filled only this far (the corrupted-MST
// generator re-roots one per edit) walks paths but has no children or
// orders. A node the marked edges do not reach keeps parent and depth -1.
func (t *Tree) rootAlong(inTree []bool) {
	for v := range t.Parent {
		t.Parent[v], t.ParentEdge[v], t.depth[v] = -1, -1, -1
	}
	t.depth[t.Root] = 0
	queue := append(make([]int, 0, len(t.Parent)), t.Root)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, h := range t.G.adj[v] {
			if inTree[h.Edge] && t.depth[h.Peer] < 0 {
				t.Parent[h.Peer], t.ParentEdge[h.Peer], t.depth[h.Peer] = v, h.Edge, t.depth[v]+1
				queue = append(queue, h.Peer)
			}
		}
	}
}

// WalkPath walks the tree path between u and v: while they differ, the
// deeper of the two (the one held in u on a tie) steps to its parent, and
// step sees each node x before it steps — so the path's edges are the parent
// edges of the nodes step sees, in that order. It stops as soon as step
// returns false and reports whether the walk met in the middle.
func (t *Tree) WalkPath(u, v int, step func(x int) bool) bool {
	for u != v {
		if t.depth[u] < t.depth[v] {
			u, v = v, u
		}
		if !step(u) {
			return false
		}
		u = t.Parent[u]
	}
	return true
}
