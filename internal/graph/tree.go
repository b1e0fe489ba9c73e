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
	adj := make([][]int, g.N())
	for _, e := range edges {
		ed := g.Edge(e)
		adj[ed.U] = append(adj[ed.U], ed.V)
		adj[ed.V] = append(adj[ed.V], ed.U)
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if parent[u] == -2 {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return NewTree(g, root, parent)
}
