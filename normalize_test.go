package ssmst

import (
	"testing"

	"ssmst/internal/graph"
)

// TestNormalizeWeightsPreservesMSTness: on graphs with duplicate weights,
// the ω′ rank transform yields distinct weights, the same edge indices, and
// preserves "candidate is an MST" in both directions (footnote 1 of the
// paper: the property the standard tie-break lacks).
func TestNormalizeWeightsPreservesMSTness(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := graph.WithDuplicateWeights(graph.RandomConnected(10, 22, seed), 4)
		if g.HasDistinctWeights() {
			continue
		}
		// Candidate: any MST of the tied graph (via an arbitrary tie-break).
		cand, err := graph.Kruskal(g, graph.ModifiedOrder(g, func(int) bool { return false }))
		if err != nil {
			t.Fatal(err)
		}
		norm := NormalizeWeights(g, cand)
		if !norm.HasDistinctWeights() {
			t.Fatal("normalized weights not distinct")
		}
		if norm.M() != g.M() || norm.N() != g.N() {
			t.Fatal("normalization changed the graph")
		}
		if !IsMST(norm, cand) {
			t.Fatalf("seed %d: MST not preserved under ω′ ranks", seed)
		}
		// The full pipeline runs on the normalized graph.
		l, err := MarkTree(norm, cand)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v := NewVerifier(l, Sync, seed)
		if err := v.RunQuiet(DetectionBudget(norm.N()) / 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNormalizeWeightsRejectsNonMST: a non-minimal candidate stays
// non-minimal under its own ω′ normalization.
func TestNormalizeWeightsRejectsNonMST(t *testing.T) {
	g := graph.New(3, nil)
	e1 := g.MustAddEdge(0, 1, 1)
	e2 := g.MustAddEdge(1, 2, 2)
	e3 := g.MustAddEdge(0, 2, 3)
	_ = e1
	cand := []int{e2, e3}
	norm := NormalizeWeights(g, cand)
	if IsMST(norm, cand) {
		t.Fatal("non-MST became minimal under ω′")
	}
}
