// Package lowerbound implements the apparatus of §9: the reduction showing
// that any MST proof labeling scheme with O(log n) memory needs Ω(log n)
// detection time (so time × memory = Ω(log² n), matching [54]'s Ω(log² n)
// label bound for 1-time schemes).
//
// The concrete object is the transformation of Figures 10–11: every edge
// (u,v) of a graph G is replaced by a simple path of 2τ+2 nodes whose last
// edge carries the original weight and whose other edges weigh 1, with the
// component (parent pointer) conventions of the figures. A τ-time verifier
// on the stretched graph G′ sees at most the information a 1-time verifier
// would see on G with labels blown up by a factor O(τ) (Lemma 9.1).
//
// The paper uses (h,µ)-hypertrees from [54] as a black box for the hard
// instances; we exercise the same code path on a synthetic hard family
// (README § "Substitutions"), and experiment E8 measures how detection time
// grows with τ at fixed O(log n) memory, and the time × memory product
// across the two schemes.
package lowerbound

import (
	"fmt"

	"ssmst/internal/graph"
)

// Stretched is the result of the G → G′ transformation.
type Stretched struct {
	G   *graph.Graph // G′; original node v keeps index v
	Tau int
	// PathNodes lists, per original edge, the 2τ inner nodes of its path in
	// DFS order from the smaller-identity endpoint.
	PathNodes [][]int
}

// Stretch builds G′ from G for parameter τ ≥ 1: each edge becomes a path
// x₁..x₂τ₊₂ with ω(x₂τ₊₁,x₂τ₊₂) = ω(u,v) and all other path edges of
// weight 1 — exactly the construction of §9. Inner nodes receive fresh
// identities above MaxID(G); inner edge weights are made distinct below
// every original weight by scaling original weights first.
func Stretch(g *graph.Graph, tau int) (*Stretched, error) {
	if tau < 1 {
		return nil, fmt.Errorf("lowerbound: tau %d < 1", tau)
	}
	n := g.N()
	inner := 2 * tau
	total := n + g.M()*inner
	ids := make([]graph.NodeID, total)
	for v := 0; v < n; v++ {
		ids[v] = g.ID(v)
	}
	nextID := g.MaxID() + 1
	for v := n; v < total; v++ {
		ids[v] = nextID
		nextID++
	}
	out := graph.New(total, ids)
	st := &Stretched{
		G:         out,
		Tau:       tau,
		PathNodes: make([][]int, g.M()),
	}
	// Scale original weights so the unit-weight path edges are strictly
	// lighter than every original edge: w′ = w·(2τ+3) keeps order and
	// distinctness; path edges get weights 1..2τ+1 offsets that stay below
	// the smallest scaled original weight and distinct per edge via small
	// unique fractions encoded in the integer scale.
	scale := graph.Weight(2*total + 3)
	next := n
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		u, v := ed.U, ed.V
		if g.ID(u) > g.ID(v) {
			u, v = v, u
		}
		nodes := make([]int, 0, inner+2)
		nodes = append(nodes, u)
		for k := 0; k < inner; k++ {
			nodes = append(nodes, next)
			next++
		}
		nodes = append(nodes, v)
		st.PathNodes[e] = nodes[1 : len(nodes)-1]
		// Path edges: all but the last weigh "1" (distinct small values);
		// the last carries the scaled original weight.
		for k := 0; k+1 < len(nodes); k++ {
			var w graph.Weight
			if k+2 == len(nodes) {
				w = ed.W*scale + graph.Weight(e)
			} else {
				w = graph.Weight(e*(2*tau+2) + k + 1)
			}
			if _, err := out.AddEdge(nodes[k], nodes[k+1], w); err != nil {
				return nil, err
			}
		}
	}
	if !out.HasDistinctWeights() {
		return nil, fmt.Errorf("lowerbound: stretched weights collide")
	}
	return st, nil
}

// HardFamily returns the synthetic hard instance of size parameter k
// (substitution for the (h,µ)-hypertrees of [54]): a complete binary tree
// skeleton with cross edges whose weights make many near-ties, so MST
// verification must compare information across Θ(log n) levels.
func HardFamily(k int) *graph.Graph {
	n := 1<<uint(k) - 1 // complete binary tree on k levels
	out := graph.New(n, nil)
	w := graph.Weight(1)
	for v := 1; v < n; v++ {
		out.MustAddEdge(v, (v-1)/2, w)
		w += 2
	}
	// Cross edges between cousins at each level, just heavier than the
	// tree edges they shadow.
	for v := 1; v+1 < n; v += 2 {
		out.MustAddEdge(v, v+1, w)
		w += 2
	}
	return out
}
