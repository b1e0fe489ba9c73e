package hierarchy

import (
	"fmt"
	"testing"

	"ssmst/internal/graph"
)

func mustExample(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := ExampleHierarchy()
	if err != nil {
		t.Fatalf("example hierarchy: %v", err)
	}
	return h
}

func TestExampleGraphShape(t *testing.T) {
	g := ExampleGraph()
	if g.N() != 18 || g.M() != 17 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() || !g.HasDistinctWeights() {
		t.Fatal("example graph malformed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExampleHierarchyStructure(t *testing.T) {
	h := mustExample(t)
	if len(h.Frags) != 31 {
		t.Fatalf("fragments = %d, want 31 (18+6+4+2+1)", len(h.Frags))
	}
	if h.Ell() != 4 {
		t.Fatalf("ℓ = %d, want 4", h.Ell())
	}
	// Count fragments per level: 18, 6, 4, 2, 1.
	counts := make([]int, 5)
	for i := range h.Frags {
		counts[h.Frags[i].Level]++
	}
	want := []int{18, 6, 4, 2, 1}
	for j := range want {
		if counts[j] != want[j] {
			t.Fatalf("level %d has %d fragments, want %d", j, counts[j], want[j])
		}
	}
	// The candidate of every fragment must be its minimum outgoing edge
	// (Figure 1 is a correct instance).
	if err := h.CheckMinimality(); err != nil {
		t.Fatal(err)
	}
}

func TestExampleFragmentRoots(t *testing.T) {
	h := mustExample(t)
	// Spot-check roots from Table 2: the level-2 fragment {d,e,h,i} is
	// rooted at h; the level-3 right fragment at l; {c,f,g} at g.
	type want struct {
		member int
		level  int
		root   int
	}
	for _, w := range []want{
		{exD, 2, exH}, {exE, 2, exH}, {exJ, 3, exL}, {exC, 1, exG},
		{exA, 1, exB}, {exO, 1, exP}, {exN, 1, exM}, {exG, 3, exG},
	} {
		fi := h.FragAt(w.member, w.level)
		if fi < 0 {
			t.Fatalf("node %s has no level-%d fragment", ExampleNames[w.member], w.level)
		}
		if h.Frags[fi].Root != w.root {
			t.Errorf("level-%d fragment of %s rooted at %s, want %s",
				w.level, ExampleNames[w.member],
				ExampleNames[h.Frags[fi].Root], ExampleNames[w.root])
		}
	}
}

func TestExampleSkippedLevels(t *testing.T) {
	h := mustExample(t)
	// d, e, h, i skip level 1 (their fragment jumped from size 1 to 4).
	for _, v := range []int{exD, exE, exH, exI} {
		if h.FragAt(v, 1) != -1 {
			t.Errorf("node %s should have no level-1 fragment", ExampleNames[v])
		}
	}
}

// TestPaperFigure1Table2 is the golden test of experiment E2: the marker's
// strings must reproduce the paper's Table 2 exactly.
func TestPaperFigure1Table2(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	want := ExampleTable2()
	for v := range ss {
		roots, endP, parents, orEndP := FormatStrings(&ss[v])
		if roots != want[v].Roots {
			t.Errorf("node %s Roots = %s, want %s", ExampleNames[v], roots, want[v].Roots)
		}
		if endP != want[v].EndP {
			t.Errorf("node %s EndP = %s, want %s", ExampleNames[v], endP, want[v].EndP)
		}
		if parents != want[v].Parents {
			t.Errorf("node %s Parents = %s, want %s", ExampleNames[v], parents, want[v].Parents)
		}
		if orEndP != want[v].OrEndP {
			t.Errorf("node %s Or_EndP = %s, want %s", ExampleNames[v], orEndP, want[v].OrEndP)
		}
	}
}

func TestExampleStringsPassLocalChecks(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	if vs := CheckAll(h.Tree, h.Ell(), ss); len(vs) != 0 {
		t.Fatalf("legal strings rejected: %v", vs)
	}
}

func TestFromStringsRoundTrip(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	h2, err := fromStrings(h.Tree, ss)
	if err != nil {
		t.Fatalf("fromStrings: %v", err)
	}
	if len(h2.Frags) != len(h.Frags) {
		t.Fatalf("round trip changed fragment count: %d vs %d", len(h2.Frags), len(h.Frags))
	}
	// Same fragment sets: compare via FragAt on every node/level.
	for v := 0; v < h.Tree.G.N(); v++ {
		for j := 0; j <= h.Ell(); j++ {
			a, b := h.FragAt(v, j), h2.FragAt(v, j)
			if (a < 0) != (b < 0) {
				t.Fatalf("node %d level %d membership differs", v, j)
			}
			if a >= 0 && h.Frags[a].Cand != h2.Frags[b].Cand {
				t.Fatalf("node %d level %d candidate differs", v, j)
			}
		}
	}
}

func TestBuildRejectsNonLaminar(t *testing.T) {
	tr, err := ExampleTree()
	if err != nil {
		t.Fatal(err)
	}
	g := tr.G
	all := make([]int, 18)
	for i := range all {
		all[i] = i
	}
	var raws []RawFragment
	for v := 0; v < 18; v++ {
		raws = append(raws, RawFragment{Nodes: []int{v}, Cand: g.Ports(v)[0].Edge})
	}
	raws = append(raws, RawFragment{Nodes: all, Cand: -1})
	// Overlapping, non-nested fragments {f,g} and {g,h} — same level 1.
	raws = append(raws,
		RawFragment{Nodes: []int{exF, exG}, Cand: g.EdgeBetween(exG, exH)},
		RawFragment{Nodes: []int{exG, exH}, Cand: g.EdgeBetween(exF, exG)},
	)
	if _, err := Build(tr, raws); err == nil {
		t.Fatal("overlapping same-level fragments accepted")
	}
}

func TestBuildRejectsNonOutgoingCandidate(t *testing.T) {
	tr, err := ExampleTree()
	if err != nil {
		t.Fatal(err)
	}
	g := tr.G
	all := make([]int, 18)
	for i := range all {
		all[i] = i
	}
	var raws []RawFragment
	for v := 0; v < 18; v++ {
		cand := g.Ports(v)[0].Edge
		if v == exF {
			cand = g.EdgeBetween(exF, exG) // fine for singleton
		}
		raws = append(raws, RawFragment{Nodes: []int{v}, Cand: cand})
	}
	raws = append(raws, RawFragment{Nodes: all, Cand: -1})
	// {f,g} with an internal candidate (f,g): not outgoing.
	raws = append(raws, RawFragment{Nodes: []int{exF, exG}, Cand: g.EdgeBetween(exF, exG)})
	if _, err := Build(tr, raws); err == nil {
		t.Fatal("internal candidate accepted")
	}
}

func TestBuildRejectsMissingSingleton(t *testing.T) {
	tr, err := ExampleTree()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 18)
	for i := range all {
		all[i] = i
	}
	raws := []RawFragment{{Nodes: all, Cand: -1}}
	if _, err := Build(tr, raws); err == nil {
		t.Fatal("missing singletons accepted")
	}
}

func TestCheckMinimalityDetectsBadCandidate(t *testing.T) {
	// Build a correct hierarchy on a triangle-ish graph, then pick a
	// non-minimal candidate.
	g := graph.New(3, nil)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 2, 3)
	tr, err := graph.TreeFromEdges(g, []int{e01, e12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	raws := []RawFragment{
		{Nodes: []int{0}, Cand: e01},
		{Nodes: []int{1}, Cand: e01},
		{Nodes: []int{2}, Cand: e12},
		{Nodes: []int{0, 1, 2}, Cand: -1},
	}
	h, err := Build(tr, raws)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMinimality(); err != nil {
		t.Fatalf("correct hierarchy rejected: %v", err)
	}
	// Now make node 2's singleton merge over the heavy edge (0,2): still a
	// well-formed hierarchy, but not minimal.
	e02 := g.EdgeBetween(0, 2)
	tr2, err := graph.TreeFromEdges(g, []int{e01, e02}, 0)
	if err != nil {
		t.Fatal(err)
	}
	raws2 := []RawFragment{
		{Nodes: []int{0}, Cand: e01},
		{Nodes: []int{1}, Cand: e01},
		{Nodes: []int{2}, Cand: e02},
		{Nodes: []int{0, 1, 2}, Cand: -1},
	}
	h2, err := Build(tr2, raws2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.CheckMinimality(); err == nil {
		t.Fatal("non-minimal candidate accepted")
	}
}

func TestPieces(t *testing.T) {
	h := mustExample(t)
	fi := h.FragAt(exD, 2)
	p := h.Piece(fi)
	if p.ID.Level != 2 {
		t.Errorf("piece level %d", p.ID.Level)
	}
	if p.ID.RootID != h.Tree.G.ID(exH) {
		t.Errorf("piece root %d, want ID(h)", p.ID.RootID)
	}
	if p.W != 21 {
		t.Errorf("piece ω = %d, want 21", p.W)
	}
	top := h.Piece(h.TopIndex)
	if top.W != NoOutWeight {
		t.Error("whole tree should carry the NoOutWeight sentinel")
	}
}

// TestEll checks the closed form against the level loop it replaced, for
// every n up to 2²⁰.
func TestEll(t *testing.T) {
	for n := 0; n <= 1<<20; n++ {
		want := 0
		for 1<<(want+1) <= n {
			want++
		}
		if got := Ell(n); got != want {
			t.Fatalf("Ell(%d) = %d, want %d", n, got, want)
		}
	}
}

// fromStrings reconstructs the hierarchy and candidate function represented
// by per-node strings over a rooted tree. It returns an error if the strings
// are not a legal representation: the global analogue of the local RS/EPS
// checks, which establishes the round-trip property and the soundness of
// the local checks.
func fromStrings(t *graph.Tree, ss []Strings) (*Hierarchy, error) {
	n := t.G.N()
	if len(ss) != n {
		return nil, fmt.Errorf("hierarchy: %d strings for %d nodes", len(ss), n)
	}
	levels := ss[0].Levels()
	for v := range ss {
		if ss[v].Levels() != levels {
			return nil, fmt.Errorf("hierarchy: node %d string length %d ≠ %d", v, ss[v].Levels(), levels)
		}
	}
	var raws []RawFragment
	// For each level and each root-marked node, collect the fragment by
	// walking down the tree through RootsNo entries.
	for j := 0; j < levels; j++ {
		assigned := make([]bool, n)
		for v := 0; v < n; v++ {
			if ss[v].RootsAt(j) != RootsYes {
				continue
			}
			var nodes []int
			stack := []int{v}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				nodes = append(nodes, x)
				assigned[x] = true
				for _, c := range t.Children(x) {
					if ss[c].RootsAt(j) == RootsNo {
						stack = append(stack, c)
					}
				}
			}
			cand, err := findCandidate(t, ss, nodes, j)
			if err != nil {
				return nil, err
			}
			raws = append(raws, RawFragment{Nodes: nodes, Cand: cand})
		}
		for v := 0; v < n; v++ {
			if ss[v].RootsAt(j) == RootsNo && !assigned[v] {
				return nil, fmt.Errorf("hierarchy: node %d marked member at level %d but unreachable from a root", v, j)
			}
		}
	}
	return Build(t, raws)
}

// findCandidate locates the induced candidate edge of the fragment with the
// given nodes at level j, per the EndP/Parents conventions.
func findCandidate(t *graph.Tree, ss []Strings, nodes []int, j int) (int, error) {
	cand := -1
	wholeTree := len(nodes) == t.G.N()
	for _, v := range nodes {
		switch ss[v].EndPAt(j) {
		case EndPUp:
			if cand >= 0 {
				return -1, fmt.Errorf("hierarchy: two candidate endpoints at level %d", j)
			}
			if t.Parent[v] < 0 {
				return -1, fmt.Errorf("hierarchy: EndP up at root of T (level %d)", j)
			}
			cand = t.ParentEdge[v]
		case EndPDown:
			if cand >= 0 {
				return -1, fmt.Errorf("hierarchy: two candidate endpoints at level %d", j)
			}
			marked := -1
			for _, c := range t.Children(v) {
				if j < ss[c].Levels() && ss[c].ParentsAt(j) {
					if marked >= 0 {
						return -1, fmt.Errorf("hierarchy: two Parents marks under node %d level %d", v, j)
					}
					marked = c
				}
			}
			if marked < 0 {
				return -1, fmt.Errorf("hierarchy: EndP down at node %d level %d without Parents mark", v, j)
			}
			cand = t.ParentEdge[marked]
		case EndPNone:
		case EndPStar:
			return -1, fmt.Errorf("hierarchy: EndP '*' inside a level-%d fragment", j)
		default:
			return -1, fmt.Errorf("hierarchy: invalid EndP symbol %q", ss[v].EndPAt(j))
		}
	}
	if cand < 0 && !wholeTree {
		return -1, fmt.Errorf("hierarchy: level-%d fragment without candidate", j)
	}
	if cand >= 0 && wholeTree {
		return -1, fmt.Errorf("hierarchy: whole tree has candidate")
	}
	return cand, nil
}
