package ghs

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/syncmst"
)

func TestGHSProducesMST(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(9, 1),
		graph.Ring(12, 2),
		graph.Grid(4, 5, 3),
		graph.Complete(10, 4),
		graph.RandomConnected(30, 80, 5),
		graph.Star(8, 6),
	}
	for i, g := range cases {
		res, err := Run(g)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !graph.IsMST(g, res.TreeEdges, graph.ByWeight(g)) {
			t.Fatalf("case %d: not an MST", i)
		}
	}
}

func TestGHSManySeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		n := 4 + int(seed%25)
		g := graph.RandomConnected(n, n-1+int(seed)%n, seed)
		res, err := Run(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kruskal, _ := graph.Kruskal(g, graph.ByWeight(g))
		if len(res.TreeEdges) != len(kruskal) {
			t.Fatalf("seed %d: size mismatch", seed)
		}
		for i := range kruskal {
			if res.TreeEdges[i] != kruskal[i] {
				t.Fatalf("seed %d: differs from Kruskal", seed)
			}
		}
	}
}

func TestGHSTimeComparedToSyncMST(t *testing.T) {
	// Experiment E6: both run in rounds linear-ish in n on random graphs
	// (GHS's O(n log n) vs SYNC_MST's O(n) is a worst-case separation; on
	// random inputs merges are balanced and SYNC_MST's constant 22
	// dominates). We assert both stay within their paper bounds and report
	// the measured rounds; `go run ./cmd/experiments -exp construction`
	// tables the comparison.
	for _, n := range []int{32, 128, 512} {
		g := graph.RandomConnected(n, 3*n, int64(n))
		gr, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := syncmst.Simulate(g)
		if err != nil {
			t.Fatal(err)
		}
		logn := 1
		for 1<<uint(logn) < n {
			logn++
		}
		if gr.Rounds > 6*n*logn {
			t.Errorf("n=%d: GHS %d rounds exceeds O(n log n) bound", n, gr.Rounds)
		}
		if sr.Rounds > 44*n {
			t.Errorf("n=%d: SYNC_MST %d rounds exceeds O(n)", n, sr.Rounds)
		}
		t.Logf("n=%d: GHS %d rounds (%d levels), SYNC_MST %d rounds", n, gr.Rounds, gr.Levels, sr.Rounds)
	}
}

func TestGHSRejectsBadInput(t *testing.T) {
	g := graph.New(4, nil)
	g.MustAddEdge(0, 1, 1)
	if _, err := Run(g); err == nil {
		t.Fatal("disconnected accepted")
	}
}
