package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// csrAgrees asserts the cached CSR returned by Adjacency agrees
// slot-for-slot with the per-node Half slices.
func csrAgrees(t *testing.T, g *Graph) {
	t.Helper()
	a := g.Adjacency()
	if int(a.Off[g.N()]) != 2*g.M() {
		t.Fatalf("total CSR slots %d, want %d", a.Off[g.N()], 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		if a.Degree(v) != g.Degree(v) {
			t.Fatalf("node %d: CSR degree %d, want %d", v, a.Degree(v), g.Degree(v))
		}
		for p, h := range g.Ports(v) {
			slot := int(a.Off[v]) + p
			if int(a.Peer[slot]) != h.Peer || int(a.PeerPort[slot]) != h.PeerPort ||
				a.Weight[slot] != g.Edge(h.Edge).W {
				t.Fatalf("node %d port %d: CSR slot disagrees with Half %+v", v, p, h)
			}
		}
	}
}

// TestAdjacencyInvalidation is the regression lock for the stale-CSR bug:
// the memoized CSR used to be validated by edge count alone, so a
// remove+add pair (count unchanged) — or any SetWeight — kept serving
// pre-mutation Off/Peer/Weight arrays. Every mutation kind must either
// patch the snapshot or force a rebuild.
func TestAdjacencyInvalidation(t *testing.T) {
	g := RandomConnected(64, 160, 3)
	a := g.Adjacency()

	// SetWeight patches in place: same snapshot object, new weight visible.
	e := 17
	if err := g.SetWeight(e, 999_999); err != nil {
		t.Fatal(err)
	}
	if got := g.Adjacency(); got != a {
		t.Fatal("SetWeight must patch the CSR snapshot, not orphan it")
	}
	csrAgrees(t, g)

	// Remove+add keeps the edge count constant — the old count-based cache
	// check could not see it. The CSR must rebuild and re-agree.
	ed := g.Edge(e)
	if err := g.RemoveEdge(e); err != nil {
		t.Fatal(err)
	}
	u, w := ed.U, -1
	for x := g.N() - 1; x >= 0; x-- {
		if x != u && g.PortTo(u, x) < 0 {
			w = x
			break
		}
	}
	if w < 0 {
		t.Fatal("no absent edge to re-add")
	}
	if _, err := g.AddEdge(u, w, 777_777); err != nil {
		t.Fatal(err)
	}
	if got := g.Adjacency(); got == a {
		t.Fatal("CSR not rebuilt after remove+add with unchanged edge count")
	}
	csrAgrees(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveEdgeCompaction: port compaction keeps the adjacency well-formed
// (port symmetry, canonical edges, dense edge ids) under a randomized
// add/remove/reweight storm, checked against Validate and the CSR after
// every mutation.
func TestRemoveEdgeCompaction(t *testing.T) {
	g := RandomConnected(40, 100, 7)
	rng := rand.New(rand.NewSource(41))
	nextW := Weight(1_000_000)
	for i := 0; i < 200; i++ {
		switch rng.Intn(3) {
		case 0: // remove a random edge (keep the graph non-trivial)
			if g.M() > 20 {
				if err := g.RemoveEdge(rng.Intn(g.M())); err != nil {
					t.Fatalf("step %d: RemoveEdge: %v", i, err)
				}
			}
		case 1: // add a random absent edge
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && g.PortTo(u, v) < 0 {
				nextW++
				if _, err := g.AddEdge(u, v, nextW); err != nil {
					t.Fatalf("step %d: AddEdge: %v", i, err)
				}
			}
		default:
			nextW++
			if err := g.SetWeight(rng.Intn(g.M()), nextW); err != nil {
				t.Fatalf("step %d: SetWeight: %v", i, err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		csrAgrees(t, g)
	}
}

// TestRecord: Record returns exactly the mutations f applied, in order —
// a removal with its ports and pre-removal degrees — and nothing applied
// outside the call; an f that fails part-way still reports what it applied.
func TestRecord(t *testing.T) {
	g := RandomConnected(16, 30, 5)
	if err := g.SetWeight(1, 111_111); err != nil { // before Record: not reported
		t.Fatal(err)
	}
	ed, e0 := g.Edge(4), g.Edge(0)
	degU, degV := g.Degree(ed.U), g.Degree(ed.V)
	pu, pv := g.PortTo(ed.U, ed.V), g.PortTo(ed.V, ed.U)
	cs, err := g.Record(func(g *Graph) error {
		if err := g.RemoveEdge(4); err != nil {
			return err
		}
		for range 2 { // the repeat changes nothing and is not reported
			if err := g.SetWeight(0, 123_456); err != nil {
				return err
			}
		}
		_, err := g.AddEdge(ed.U, ed.V, 654_321)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Change{
		{Kind: EdgeRemoved, U: ed.U, V: ed.V, W: ed.W, PortU: pu, PortV: pv, OldDegU: degU, OldDegV: degV},
		{Kind: WeightChanged, U: e0.U, V: e0.V, W: 123_456},
		{Kind: EdgeAdded, U: ed.U, V: ed.V, W: 654_321, PortU: degU - 1, PortV: degV - 1},
	}
	if !slices.Equal(cs, want) {
		t.Fatalf("Record reported\n%+v\nwant\n%+v", cs, want)
	}

	if err := g.SetWeight(2, 7); err != nil { // between Records: not reported
		t.Fatal(err)
	}
	boom := errors.New("boom")
	cs, err = g.Record(func(g *Graph) error {
		if err := g.SetWeight(3, 222_222); err != nil {
			return err
		}
		return boom
	})
	e3 := g.Edge(3)
	if want := []Change{{Kind: WeightChanged, U: e3.U, V: e3.V, W: 222_222}}; !errors.Is(err, boom) || !slices.Equal(cs, want) {
		t.Fatalf("failing f: Record = (%+v, %v), want (%+v, boom)", cs, err, want)
	}
	if cs, err := g.Record(func(*Graph) error { return nil }); err != nil || len(cs) != 0 {
		t.Fatalf("empty f: Record = (%+v, %v), want nothing", cs, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDiameterDoubleSweep: the double-sweep Diameter is exact on trees and
// a valid lower bound (within the known factor) on general graphs, checked
// against the exhaustive all-pairs BFS reference.
func TestDiameterDoubleSweep(t *testing.T) {
	trees := []*Graph{
		Path(17, 1), Star(9, 2), Caterpillar(8, 3, 3),
		randomTree(33, 4), randomTree(64, 9), Path(2, 1), New(1, nil),
	}
	for i, g := range trees {
		if got, want := g.Diameter(), diameterExact(g); got != want {
			t.Fatalf("tree %d: double-sweep %d, exhaustive %d (must be exact on trees)", i, got, want)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		g := RandomConnected(48, 100+int(seed)*7, seed)
		got, want := g.Diameter(), diameterExact(g)
		if got > want || 2*got < want {
			t.Fatalf("seed %d: double-sweep %d outside [⌈D/2⌉, D] for D=%d", seed, got, want)
		}
	}
	// MSTs are trees: exactness holds on the spanning trees the budgets use.
	g := RandomConnected(60, 150, 11)
	edges, err := Kruskal(g, ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	tg := New(g.N(), nil)
	for _, e := range edges {
		ed := g.Edge(e)
		tg.MustAddEdge(ed.U, ed.V, ed.W)
	}
	if got, want := tg.Diameter(), diameterExact(tg); got != want {
		t.Fatalf("MST: double-sweep %d, exhaustive %d", got, want)
	}
}

// diameterExact returns the exact hop diameter by running BFS from every
// node — O(n·m), the reference for Diameter's double sweep.
func diameterExact(g *Graph) int {
	d := 0
	for v := 0; v < g.N(); v++ {
		for _, x := range g.BFSDistances(v) {
			if x > d {
				d = x
			}
		}
	}
	return d
}
