package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Tree is a rooted spanning tree of a graph, represented distributively as
// the paper's components c(v): each non-root node stores a single parent
// pointer (§2.1). Tree additionally keeps what the marker algorithms
// consume — each node's children, depths, subtree sizes and a DFS preorder
// — all derived by one builder from one rooting pass, whichever of NewTree
// and TreeFromEdges made it. Children are in port order at the parent, so
// the DFS order is reproducible from local information only (as the
// distributed DFS of §6.3.6 is).
type Tree struct {
	G          *Graph
	Root       int
	Parent     []int // Parent[v] = parent node index, -1 for root
	ParentEdge []int // ParentEdge[v] = edge index to parent, -1 for root

	depth []int
	// bfs is the rooting pass's queue, every node in BFS order from Root.
	// The pass appends a node's children one after another in port order,
	// so v's children are bfs[kids[v][0]:kids[v][1]].
	bfs      []int
	kids     [][2]int
	size     []int
	dfsOrder []int // preorder: dfsOrder[i] = i-th node visited
}

// NewTree builds a rooted tree from parent pointers over g. parent[root]
// must be -1 and every other node must reach root by following pointers;
// the nodes of a parent cycle never do, so a cycle is reported as a tree
// that spans fewer than n nodes.
func NewTree(g *Graph, root int, parent []int) (*Tree, error) {
	if len(parent) != g.N() {
		return nil, errors.New("graph: parent slice length mismatch")
	}
	inTree := make([]bool, g.M())
	for v, p := range parent {
		if v == root {
			if p != -1 {
				return nil, fmt.Errorf("graph: root %d has parent %d", root, p)
			}
			continue
		}
		e := g.EdgeBetween(v, p) // -1 for a parent out of range, too
		if e < 0 {
			return nil, fmt.Errorf("graph: node %d parent %d not adjacent", v, p)
		}
		inTree[e] = true
	}
	return buildTree(g, root, inTree)
}

// TreeFromEdges roots the given spanning-tree edge set at root and returns
// the Tree, or an error if the edges do not form a spanning tree: n−1
// distinct in-range edge ids that the rooting pass follows to all n nodes.
func TreeFromEdges(g *Graph, edges []int, root int) (*Tree, error) {
	if len(edges) != g.N()-1 {
		return nil, fmt.Errorf("graph: %d edges, but a spanning tree of %d nodes has n−1", len(edges), g.N())
	}
	inTree := make([]bool, g.M())
	for _, e := range edges {
		if e < 0 || e >= g.M() {
			return nil, fmt.Errorf("graph: tree edge id %d out of range [0, %d)", e, g.M())
		}
		if inTree[e] {
			return nil, fmt.Errorf("graph: tree edge %d repeated", e)
		}
		inTree[e] = true
	}
	return buildTree(g, root, inTree)
}

// buildTree is the one builder behind NewTree and TreeFromEdges, which mark
// at most n−1 edges: those form a spanning tree exactly when the rooting
// pass reaches all n nodes. Subtree sizes then come from one reverse sweep
// of the pass's queue, and the preorder from one stack walk over the
// children.
func buildTree(g *Graph, root int, inTree []bool) (*Tree, error) {
	n := g.N()
	t := newRooting(g, root)
	t.rootAlong(inTree)
	if len(t.bfs) != n {
		return nil, fmt.Errorf("graph: tree spans %d of %d nodes", len(t.bfs), n)
	}
	t.size = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := t.bfs[i]
		t.size[v]++
		if p := t.Parent[v]; p >= 0 {
			t.size[p] += t.size[v]
		}
	}
	t.dfsOrder = make([]int, 0, n)
	for stack := append(make([]int, 0, n), root); len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.dfsOrder = append(t.dfsOrder, v)
		kids := t.Children(v)
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return t, nil
}

// newRooting returns a Tree over g rooted at root holding only the arrays
// rootAlong fills.
func newRooting(g *Graph, root int) *Tree {
	n := g.N()
	return &Tree{G: g, Root: root, Parent: make([]int, n), ParentEdge: make([]int, n),
		depth: make([]int, n), bfs: make([]int, 0, n), kids: make([][2]int, n)}
}

// rootAlong is the one rooting pass over a spanning tree: a BFS from t.Root
// over t.G's own port lists that follows the edges inTree marks. It fills
// t.Parent and t.ParentEdge (-1 at the root), t.depth, and the queue t.bfs
// with each reached node's children range in it. A node the marked edges do
// not reach keeps parent and depth -1 and is missing from the queue. That
// is all WalkPath needs, so the corrupted-MST generator re-roots one Tree
// with it alone, once per edit.
func (t *Tree) rootAlong(inTree []bool) {
	for v := range t.Parent {
		t.Parent[v], t.ParentEdge[v], t.depth[v] = -1, -1, -1
	}
	t.depth[t.Root] = 0
	t.bfs = append(t.bfs[:0], t.Root)
	for i := 0; i < len(t.bfs); i++ {
		v := t.bfs[i]
		t.kids[v][0] = len(t.bfs)
		for _, h := range t.G.adj[v] {
			if inTree[h.Edge] && t.depth[h.Peer] < 0 {
				t.Parent[h.Peer], t.ParentEdge[h.Peer], t.depth[h.Peer] = v, h.Edge, t.depth[v]+1
				t.bfs = append(t.bfs, h.Peer)
			}
		}
		t.kids[v][1] = len(t.bfs)
	}
}

// Children returns v's children in port order; owned by the tree.
func (t *Tree) Children(v int) []int { return t.bfs[t.kids[v][0]:t.kids[v][1]:t.kids[v][1]] }

// Depth returns the hop distance from the root to v.
func (t *Tree) Depth(v int) int { return t.depth[v] }

// SubtreeSize returns the number of nodes in v's subtree (including v).
func (t *Tree) SubtreeSize(v int) int { return t.size[v] }

// Height returns the height of the tree (max depth): the depth of the last
// node the BFS reached.
func (t *Tree) Height() int { return t.depth[t.bfs[len(t.bfs)-1]] }

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
