package graph

import "testing"

// TestAdjacencyMatchesPorts: the CSR form agrees slot-for-slot with the
// per-node Half slices it flattens, and is rebuilt after AddEdge.
func TestAdjacencyMatchesPorts(t *testing.T) {
	g := RandomConnected(200, 520, 9)
	a := g.Adjacency()
	if got := g.Adjacency(); got != a {
		t.Fatal("Adjacency rebuilt without a graph mutation")
	}
	check := func(a *Adj) {
		t.Helper()
		if int(a.Off[g.N()]) != 2*g.M() {
			t.Fatalf("total slots %d, want %d", a.Off[g.N()], 2*g.M())
		}
		for v := 0; v < g.N(); v++ {
			if a.Degree(v) != g.Degree(v) {
				t.Fatalf("node %d: CSR degree %d, want %d", v, a.Degree(v), g.Degree(v))
			}
			for p, h := range g.Ports(v) {
				slot := int(a.Off[v]) + p
				if int(a.Peer[slot]) != h.Peer || int(a.PeerPort[slot]) != h.PeerPort ||
					a.Weight[slot] != g.Edge(h.Edge).W {
					t.Fatalf("node %d port %d: CSR slot %+v disagrees with Half %+v",
						v, p, slot, h)
				}
			}
		}
	}
	check(a)

	// Mutation invalidates the frozen snapshot: the next Adjacency call
	// rebuilds and re-agrees.
	u, w := 0, -1
	for x := g.N() - 1; x > 0; x-- {
		if g.PortTo(u, x) < 0 {
			w = x
			break
		}
	}
	if w < 0 {
		t.Fatal("node 0 adjacent to everyone; cannot add an edge")
	}
	if _, err := g.AddEdge(u, w, Weight(1_000_000)); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	b := g.Adjacency()
	if b == a {
		t.Fatal("Adjacency not rebuilt after AddEdge")
	}
	check(b)
}
