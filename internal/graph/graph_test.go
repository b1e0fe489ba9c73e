package graph

import (
	"math/rand"
	"testing"
)

func TestNewAssignsUniqueIDs(t *testing.T) {
	g := New(5, nil)
	seen := map[NodeID]bool{}
	for v := 0; v < 5; v++ {
		id := g.ID(v)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a duplicate identity")
		}
	}()
	New(3, []NodeID{7, 8, 7})
}

func TestAddEdgeAndPorts(t *testing.T) {
	g := New(3, nil)
	e01 := g.MustAddEdge(0, 1, 5)
	e12 := g.MustAddEdge(2, 1, 7) // reversed order must canonicalize
	if g.Edge(e12).U != 1 || g.Edge(e12).V != 2 {
		t.Fatalf("edge not canonical: %+v", g.Edge(e12))
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	if g.PortTo(0, 1) != 0 || g.PortTo(1, 0) != 0 || g.PortTo(1, 2) != 1 {
		t.Fatal("port numbering wrong")
	}
	if g.EdgeBetween(0, 1) != e01 {
		t.Fatal("EdgeBetween wrong")
	}
	if g.Other(e01, 0) != 1 || g.Other(e01, 1) != 0 {
		t.Fatal("Other wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeRejectsBadEdges(t *testing.T) {
	g := New(3, nil)
	if _, err := g.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range accepted")
	}
	g.MustAddEdge(0, 1, 1)
	if _, err := g.AddEdge(1, 0, 2); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestConnected(t *testing.T) {
	g := New(4, nil)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 2)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.MustAddEdge(1, 2, 3)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5, 1)
	d := g.BFSDistances(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
	if g.Diameter() != 4 {
		t.Fatalf("path diameter = %d", g.Diameter())
	}
	if Ring(6, 1).Diameter() != 3 {
		t.Fatal("ring diameter wrong")
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
		degΔ int // expected max degree, -1 to skip
	}{
		{"path", Path(7, 3), 7, 6, 2},
		{"ring", Ring(7, 3), 7, 7, 2},
		{"grid", Grid(3, 4, 3), 12, 17, 4},
		{"complete", Complete(6, 3), 6, 15, 5},
		{"star", Star(9, 3), 9, 8, 8},
		{"randomtree", randomTree(20, 3), 20, 19, -1},
		{"randomconn", RandomConnected(20, 40, 3), 20, 40, -1},
		{"caterpillar", Caterpillar(5, 2, 3), 15, 14, -1},
		{"lollipop", Lollipop(10, 4, 3), 10, 12, -1},
		{"regular4", regular(10, 4, 3), 10, 20, 4},
		{"regular3", regular(10, 3, 3), 10, 15, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.n {
				t.Fatalf("N = %d, want %d", c.g.N(), c.n)
			}
			if c.g.M() != c.m {
				t.Fatalf("M = %d, want %d", c.g.M(), c.m)
			}
			if !c.g.Connected() {
				t.Fatal("not connected")
			}
			if err := c.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !c.g.HasDistinctWeights() {
				t.Fatal("weights not distinct")
			}
			if c.degΔ >= 0 && c.g.MaxDegree() != c.degΔ {
				t.Fatalf("MaxDegree = %d, want %d", c.g.MaxDegree(), c.degΔ)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomConnected(30, 60, 42)
	b := RandomConnected(30, 60, 42)
	if a.M() != b.M() {
		t.Fatal("same seed produced different graphs")
	}
	for e := 0; e < a.M(); e++ {
		if a.Edge(e) != b.Edge(e) {
			t.Fatalf("edge %d differs", e)
		}
	}
	c := RandomConnected(30, 60, 43)
	same := true
	for e := 0; e < a.M() && e < c.M(); e++ {
		if a.Edge(e) != c.Edge(e) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRegularDegrees(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		n := 12
		g := regular(n, d, 7)
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				t.Fatalf("d=%d: node %d has degree %d", d, v, g.Degree(v))
			}
		}
	}
}

func TestWithDuplicateWeights(t *testing.T) {
	g := Complete(6, 5)
	dup := WithDuplicateWeights(g, 3)
	if dup.HasDistinctWeights() {
		t.Fatal("expected ties after collapsing weights")
	}
	for e := 0; e < dup.M(); e++ {
		w := dup.Edge(e).W
		if w < 1 || w > 3 {
			t.Fatalf("weight %d out of range", w)
		}
	}
}

func TestClone(t *testing.T) {
	g := Path(10, 9)
	c := g.Clone()
	c.MustAddEdge(0, c.N()-1, 99999)
	if g.M() == c.M() {
		t.Fatal("clone shares edge storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

// randomTree returns a uniformly random labeled tree (random attachment).
func randomTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n, rng)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, rng.Intn(i), ws[i-1])
	}
	return g
}

// regular returns a connected d-regular graph on n nodes (n·d even, d ≥ 2),
// built as d/2 superimposed shifted rings (for even d) or a ring plus a
// perfect matching for odd d with even n.
func regular(n, d int, seed int64) *Graph {
	if d < 2 || d >= n {
		panic("graph: regular needs 2 <= d < n")
	}
	if n*d%2 != 0 {
		panic("graph: regular needs n*d even")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n*d, rng)
	k := 0
	add := func(u, v int) {
		if u != v && g.PortTo(u, v) < 0 {
			g.MustAddEdge(u, v, ws[k])
			k++
		}
	}
	// Circulant construction: connect i to i±s for s = 1..d/2.
	for s := 1; s <= d/2; s++ {
		for i := 0; i < n; i++ {
			add(i, (i+s)%n)
		}
	}
	if d%2 == 1 {
		// Diameter matching i — i+n/2.
		for i := 0; i < n/2; i++ {
			add(i, i+n/2)
		}
	}
	return g
}
