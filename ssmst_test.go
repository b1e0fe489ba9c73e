package ssmst

import (
	"fmt"
	"strings"
	"testing"

	"ssmst/internal/graph"
)

func TestFacadePipeline(t *testing.T) {
	g := RandomGraph(20, 50, 3)
	edges, rounds, err := ConstructMST(g)
	if err != nil {
		t.Fatal(err)
	}
	if !IsMST(g, edges) {
		t.Fatal("ConstructMST not minimal")
	}
	if rounds <= 0 || rounds > 44*g.N() {
		t.Fatalf("rounds = %d", rounds)
	}
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(l, Sync, 1)
	if err := v.RunQuiet(DetectionBudget(g.N()) / 4); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMarkTree(t *testing.T) {
	g := RandomGraph(12, 28, 5)
	edges, _, err := ConstructMST(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := MarkTree(g, edges)
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxLabelBits() <= 0 {
		t.Fatal("no labels")
	}
}

// TestFacadeMarkTreeRejectsBadEdgeIDs: a tree edge id outside [0, M) is an
// error naming that id, not an index panic.
func TestFacadeMarkTreeRejectsBadEdgeIDs(t *testing.T) {
	g := RandomGraph(4, 3, 1)
	for _, bad := range []int{7, -1} {
		edges := []int{0, 1, bad}
		l, err := MarkTree(g, edges)
		if err == nil || l != nil {
			t.Fatalf("edges %v: got (%v, %v), want an error", edges, l, err)
		}
		if want := fmt.Sprint(bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("edges %v: error %q does not name id %s", edges, err, want)
		}
	}
}

// TestFacadeCorruptEmptyGraph: the MST of a 0-node graph is the empty tree,
// so corruption density 0 returns it and any edit saturates at once — an
// error, not a makeslice panic.
func TestFacadeCorruptEmptyGraph(t *testing.T) {
	g := graph.New(0, nil)
	tree, err := CorruptSpanningTree(g, 0, 1)
	if err != nil || len(tree) != 0 {
		t.Fatalf("k=0: got (%v, %v), want an empty tree", tree, err)
	}
	for _, k := range []int{1, 4} {
		tree, err := CorruptSpanningTree(g, k, 1)
		if err == nil || tree != nil || !strings.Contains(err.Error(), "saturated") {
			t.Fatalf("k=%d: got (%v, %v), want the saturated error", k, tree, err)
		}
	}
}

func TestFacadeSelfStabilizing(t *testing.T) {
	g := RandomGraph(12, 30, 7)
	r, err := NewSelfStabilizing(g, g.N(), Sync, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
		t.Fatal("did not stabilize")
	}
	if !r.OutputIsMST() {
		t.Fatal("output not MST")
	}
}

// TestFacadeSelfStabilizingRejectsBadInput: the transformer never
// stabilizes on fewer than 2 nodes (the label phase cannot mark them), on a
// disconnected graph or on repeated weights, and a bound below n breaks the
// reset substrate's timing, so all are errors instead of a run that
// silently never converges (or, at n=0, panics).
func TestFacadeSelfStabilizingRejectsBadInput(t *testing.T) {
	split := graph.New(4, nil) // two components: 0–1 and 2–3
	split.MustAddEdge(0, 1, 1)
	split.MustAddEdge(2, 3, 2)
	for _, tc := range []struct {
		name string
		g    *Graph
		hint string
	}{
		{"n=0", graph.New(0, nil), "n=0"},
		{"n=1", graph.New(1, nil), "n=1"},
		{"disconnected graph", split, "disconnected"},
		{"duplicate weights", graph.WithDuplicateWeights(RandomGraph(24, 48, 3), 3), "normalize first"},
	} {
		r, err := NewSelfStabilizing(tc.g, max(tc.g.N(), 2), Sync, 1)
		if err == nil || r != nil {
			t.Fatalf("%s: got (%v, %v), want an error", tc.name, r, err)
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Fatalf("%s: error %q does not say %q", tc.name, err, tc.hint)
		}
	}
	g := RandomGraph(12, 30, 7)
	r, err := NewSelfStabilizing(g, g.N()-1, Sync, 1)
	if err == nil || r != nil {
		t.Fatalf("bound n-1: got (%v, %v), want an error", r, err)
	}
	if !strings.Contains(err.Error(), "bound 11") {
		t.Fatalf("bound n-1: error %q does not name the bound", err)
	}
}

// TestFacadeWorklist pins the worklist surface: a worklist verifier on a
// freshly marked instance starts frozen — its frontier is empty from round
// 2 — into zero-cost quiet rounds, and a corrupted register melts it back
// awake and is detected within the Theorem 8.5 budget.
func TestFacadeWorklist(t *testing.T) {
	g := RandomGraph(48, 110, 7)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifierWorklist(l, 1)
	budget := DetectionBudget(g.N())
	v.Step()
	v.Step()
	if a := v.Eng.LastActive(); a != 0 {
		t.Fatalf("%d nodes still active at round 2 of a fresh worklist verifier", a)
	}
	steps := v.Eng.StepsTaken()
	v.Eng.RunSyncRounds(25)
	if got := v.Eng.StepsTaken() - steps; got != 0 {
		t.Fatalf("%d machine steps over 25 quiet rounds, want 0", got)
	}
	v.Inject(5, func(s *VState) { s.L.SP.Dist += 3 })
	if _, _, detected := v.RunUntilAlarm(2 * budget); !detected {
		t.Fatal("worklist verifier missed the corruption")
	}
}
