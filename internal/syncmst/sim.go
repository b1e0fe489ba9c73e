// Package syncmst implements SYNC_MST (§4 of the paper): the synchronous
// MST construction algorithm with O(n) time and O(log n) bits per node that
// underlies both the marker algorithm of the verification scheme and the
// self-stabilizing MST construction.
//
// Two implementations are provided and cross-validated:
//
//   - Simulate: a centralized fragment-level replay of the phase semantics
//     (phases at round 11·2^i; Count_Size with TTL 2^{i+1}−1; active
//     fragments with |F| ≤ 2^{i+1}−1; minimum-outgoing-edge selection;
//     pivot handshakes electing the larger identity). It produces the final
//     tree, the hierarchy of active fragments, and the simulated round
//     count. The marker uses it at scale, and verify.MarkTree uses
//     SimulateTree: the same phase loop selecting among a given spanning
//     tree's edges only.
//
//   - Machine: the actual distributed register program with exact round
//     timing, executed on internal/runtime. Tests check that both produce
//     identical trees and fragments.
package syncmst

import (
	"errors"
	"fmt"
	"slices"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

// Result is the outcome of a SYNC_MST run.
type Result struct {
	Tree      *graph.Tree
	Hierarchy *hierarchy.Hierarchy
	// Rounds is the simulated synchronous round count: the algorithm
	// terminates during phase ℓ, which ends at round 22·2^ℓ − 1.
	Rounds int
	// Phases is ℓ+1, the number of phases executed.
	Phases int
}

// component is a fragment of the evolving forest during simulation.
type component struct {
	nodes  []int
	root   int  // current GHS-root node
	active bool // count succeeded this phase
	cand   int  // selected min outgoing edge this phase (-1 none)
	candW  int  // inside endpoint of cand
}

// Simulate runs the phase semantics of SYNC_MST centrally and returns the
// final tree, the hierarchy of active fragments, and the round count.
// Weights must be pairwise distinct.
func Simulate(g *graph.Graph) (*Result, error) {
	if g.N() == 0 {
		return nil, errors.New("syncmst: empty graph")
	}
	if !g.Connected() {
		return nil, errors.New("syncmst: graph not connected")
	}
	if !g.HasDistinctWeights() {
		return nil, errors.New("syncmst: weights must be distinct (normalize first)")
	}
	return simulate(g, nil)
}

// SimulateTree runs Simulate's phases on the spanning tree treeEdges of g:
// every fragment selects its minimum outgoing edge among the tree's edges
// only. A tree is its own MST, so the result's tree is exactly treeEdges and
// every candidate is a tree edge, while each fragment's ω(F) is still its
// minimum outgoing weight in all of g. The tree's weights must be pairwise
// distinct; g's other weights need not be.
func SimulateTree(g *graph.Graph, treeEdges []int) (*Result, error) {
	if !graph.IsSpanningTree(g, treeEdges) {
		return nil, errors.New("syncmst: edge set is not a spanning tree")
	}
	inTree := make([]bool, g.M())
	ws := make([]graph.Weight, len(treeEdges))
	for i, e := range treeEdges {
		inTree[e], ws[i] = true, g.Edge(e).W
	}
	slices.Sort(ws)
	if len(slices.Compact(ws)) != len(treeEdges) {
		return nil, errors.New("syncmst: tree weights must be distinct (normalize first)")
	}
	return simulate(g, inTree)
}

// simulate is the one phase loop of Simulate and SimulateTree. A nil inTree
// lets every edge of g be selected; otherwise only the edges it marks are.
func simulate(g *graph.Graph, inTree []bool) (*Result, error) {
	n := g.N()
	comp := make([]*component, n)
	compOf := make([]int, n)
	// hook[ci] is the component ci hooks into this phase (ci itself for a
	// component that does not hook); find resolves it to the group's sink.
	hook := make([]int, n)
	for v := 0; v < n; v++ {
		comp[v] = &component{nodes: []int{v}, root: v}
		compOf[v] = v
	}
	find := func(x int) int {
		r := x
		for hook[r] != r {
			r = hook[r]
		}
		for hook[x] != r {
			hook[x], x = r, hook[x]
		}
		return r
	}
	var raws []hierarchy.RawFragment
	treeEdges := make([]int, 0, n-1)
	finalRoot := -1

	phase := 0
	for ; ; phase++ {
		if phase > 2*n+2 {
			return nil, fmt.Errorf("syncmst: runaway phase count %d", phase)
		}
		limit := 1<<(phase+1) - 1
		// Count_Size: mark active components.
		var active []int
		for ci, c := range comp {
			if c == nil {
				continue
			}
			c.active = len(c.nodes) <= limit
			c.cand = -1
			hook[ci] = ci
			if c.active {
				active = append(active, ci)
			}
		}
		// Find_Min_Out_Edge for each active component.
		spanning := -1
		for _, ci := range active {
			c := comp[ci]
			best, bestIn := -1, -1
			for _, v := range c.nodes {
				for _, h := range g.Ports(v) {
					if compOf[h.Peer] == ci || inTree != nil && !inTree[h.Edge] {
						continue
					}
					if best < 0 || g.Edge(h.Edge).W < g.Edge(best).W {
						best, bestIn = h.Edge, v
					}
				}
			}
			if best < 0 {
				// No outgoing edge: the component spans the graph.
				spanning = ci
				break
			}
			c.cand, c.candW = best, bestIn
		}
		if spanning >= 0 {
			c := comp[spanning]
			raws = append(raws, hierarchy.RawFragment{Nodes: append([]int(nil), c.nodes...), Cand: -1})
			finalRoot = c.root
			break
		}
		// Record active fragments in the hierarchy (Comment 4.1: an active
		// fragment is a fixed node set).
		for _, ci := range active {
			c := comp[ci]
			raws = append(raws, hierarchy.RawFragment{
				Nodes: append([]int(nil), c.nodes...),
				Cand:  c.cand,
			})
		}
		// Merging: each active component hooks over its candidate, except
		// the larger-identity endpoint of a mutual pair, which becomes the
		// root of the merged component. Components connected through
		// selected edges unite; if a group contains an inactive component,
		// that component's root remains root (nobody re-roots it).
		for _, ci := range active {
			c := comp[ci]
			e := g.Edge(c.cand)
			out := e.U
			if out == c.candW {
				out = e.V
			}
			dj := compOf[out]
			d := comp[dj]
			if d.active && d.cand == c.cand {
				// Mutual pair: the endpoint with the larger identity wins.
				if g.ID(c.candW) > g.ID(out) {
					continue // c's endpoint wins; c does not hook
				}
			}
			hook[ci] = dj
			treeEdges = append(treeEdges, c.cand)
		}
		// Each group merges into its sink, which keeps its index. The sink
		// either is inactive (kept its root) or won a mutual handshake, in
		// which case the re-orientation rooted it at the winning endpoint
		// of the shared edge.
		for ci, c := range comp {
			if c == nil || hook[ci] == ci {
				continue
			}
			si := find(ci)
			sink := comp[si]
			if sink.active {
				sink.root = sink.candW
			}
			sink.nodes = append(sink.nodes, c.nodes...)
			for _, v := range c.nodes {
				compOf[v] = si
			}
			comp[ci] = nil
		}
	}

	tree, err := graph.TreeFromEdges(g, treeEdges, finalRoot)
	if err != nil {
		return nil, fmt.Errorf("syncmst: merged edges are not a spanning tree: %w", err)
	}
	h, err := hierarchy.Build(tree, raws)
	if err != nil {
		return nil, fmt.Errorf("syncmst: invalid hierarchy: %w", err)
	}
	return &Result{
		Tree:      tree,
		Hierarchy: h,
		Rounds:    22*(1<<phase) - 1,
		Phases:    phase + 1,
	}, nil
}
