package graph

import (
	"fmt"
	"math/rand"
)

// CorruptedMSTGenerator produces k-edge-corrupted spanning trees of a fixed
// graph by random cycle edits, the adversarial-instance construction of the
// centralized MST-verification literature: preprocess the MST once, then
// each edit picks a random non-tree edge, walks the tree cycle it closes,
// and swaps a strictly lighter tree edge on that cycle for it. Every edit
// keeps the edge set a spanning tree and strictly increases its total
// weight, so for any k ≥ 1 the generated tree is certifiably *not* minimal
// (under distinct weights) — calibrated ground truth for sweeping detection
// latency over corruption density k.
type CorruptedMSTGenerator struct {
	g   *Graph
	mst []int
}

// NewCorruptedMSTGenerator solves the MST of g once (Kruskal under the
// natural distinct-weight order); Generate derives corrupted trees from it
// without re-solving. Fails on disconnected graphs.
func NewCorruptedMSTGenerator(g *Graph) (*CorruptedMSTGenerator, error) {
	mst, err := Kruskal(g, ByWeight(g))
	if err != nil {
		return nil, fmt.Errorf("graph: corrupted-MST generator: %w", err)
	}
	return &CorruptedMSTGenerator{g: g, mst: mst}, nil
}

// MST returns the uncorrupted minimum spanning tree (corruption density 0).
func (c *CorruptedMSTGenerator) MST() []int {
	return append([]int(nil), c.mst...)
}

// Generate returns a spanning tree k random cycle edits away from the MST,
// sorted ascending by edge index. The result is deterministic in (k, seed)
// alone: every call derives a fresh rand stream from seed, so call order
// cannot drift the output. It fails when the graph saturates before k edits
// (no non-tree cycle has a strictly lighter tree edge left — e.g. a
// tree-only graph for any k ≥ 1).
func (c *CorruptedMSTGenerator) Generate(k int, seed int64) ([]int, error) {
	g := c.g
	rng := rand.New(rand.NewSource(seed))
	inTree := make([]bool, g.M())
	for _, e := range c.mst {
		inTree[e] = true
	}
	t := newRooting(g, 0)
	for edit := 0; edit < k; edit++ {
		if !cycleEdit(t, rng, inTree) {
			return nil, fmt.Errorf("graph: corrupted-MST generator saturated after %d of %d edits (no strictly lighter tree edge on any non-tree cycle)", edit, k)
		}
	}
	out := make([]int, 0, max(g.N()-1, 0))
	for e := 0; e < g.M(); e++ {
		if inTree[e] {
			out = append(out, e)
		}
	}
	return out, nil
}

// cycleEdit performs one random cycle edit on the tree inTree marks: it
// re-roots t along it, then among the non-tree edges (in random order) finds
// one whose tree cycle carries a strictly lighter tree edge, and swaps a
// random such edge out for it. Reports false when no edit is possible
// anywhere — at once, without rooting, when there is no non-tree edge (an
// empty graph has no node to root at).
func cycleEdit(t *Tree, rng *rand.Rand, inTree []bool) bool {
	g := t.G
	cands := make([]int, 0, g.M())
	for e := 0; e < g.M(); e++ {
		if !inTree[e] {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return false
	}
	t.rootAlong(inTree)
	var lighter []int
	for _, i := range rng.Perm(len(cands)) {
		e := cands[i]
		ed := g.Edge(e)
		lighter = lighter[:0]
		// The walk's parent edges are exactly the cycle e closes; the edge
		// swapped out is picked by its index in the walk's order.
		t.WalkPath(ed.U, ed.V, func(x int) bool {
			if pe := t.ParentEdge[x]; g.Edge(pe).W < ed.W {
				lighter = append(lighter, pe)
			}
			return true
		})
		if len(lighter) == 0 {
			continue
		}
		inTree[lighter[rng.Intn(len(lighter))]] = false
		inTree[e] = true
		return true
	}
	return false
}
