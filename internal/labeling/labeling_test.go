package labeling

import (
	"fmt"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/syncmst"
)

func buildTree(t *testing.T, g *graph.Graph, root int) *graph.Tree {
	t.Helper()
	edges, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.TreeFromEdges(g, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkSPAll(t *testing.T, tr *graph.Tree, labels []SPLabel) error {
	t.Helper()
	g := tr.G
	for v := 0; v < g.N(); v++ {
		var parent *SPLabel
		if p := tr.Parent[v]; p >= 0 {
			parent = &labels[p]
		}
		var nbs []*SPLabel
		for _, h := range g.Ports(v) {
			nbs = append(nbs, &labels[h.Peer])
		}
		if err := CheckSP(&labels[v], g.ID(v), parent, nbs); err != nil {
			return err
		}
	}
	return nil
}

func TestSPAcceptsCorrect(t *testing.T) {
	g := graph.RandomConnected(20, 40, 1)
	tr := buildTree(t, g, 4)
	if err := checkSPAll(t, tr, MarkSP(tr)); err != nil {
		t.Fatal(err)
	}
}

func TestSPRejectsCorruptions(t *testing.T) {
	g := graph.RandomConnected(15, 30, 2)
	tr := buildTree(t, g, 0)
	mutations := []func(ls []SPLabel){
		func(ls []SPLabel) { ls[3].RootID += 7 },
		func(ls []SPLabel) { ls[5].Dist += 2 },
		func(ls []SPLabel) { ls[1].SelfID += 1 },
		func(ls []SPLabel) { ls[7].ParentID += 3 },
		func(ls []SPLabel) { ls[tr.Root].Dist = 1 },
	}
	for i, mut := range mutations {
		ls := MarkSP(tr)
		mut(ls)
		if err := checkSPAll(t, tr, ls); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSizeAcceptsAndRejects(t *testing.T) {
	g := graph.RandomConnected(18, 36, 3)
	tr := buildTree(t, g, 2)
	check := func(ls []SizeLabel) error {
		for v := 0; v < g.N(); v++ {
			var children, nbs []*SizeLabel
			for _, c := range tr.Children(v) {
				children = append(children, &ls[c])
			}
			for _, h := range g.Ports(v) {
				nbs = append(nbs, &ls[h.Peer])
			}
			if err := CheckSize(&ls[v], v == tr.Root, children, nbs); err != nil {
				return err
			}
		}
		return nil
	}
	ls := MarkSize(tr)
	if err := check(ls); err != nil {
		t.Fatal(err)
	}
	ls = MarkSize(tr)
	ls[4].N++ // disagreement
	if check(ls) == nil {
		t.Fatal("N corruption accepted")
	}
	ls = MarkSize(tr)
	ls[6].Sub++ // breaks the sum at 6's parent or at 6
	if check(ls) == nil {
		t.Fatal("Sub corruption accepted")
	}
	// Claiming a wrong global count must fail somewhere.
	ls = MarkSize(tr)
	for v := range ls {
		ls[v].N = g.N() + 5
	}
	if check(ls) == nil {
		t.Fatal("globally wrong N accepted")
	}
}

// kkNeighbour is the view of one graph neighbour during the 1-time check.
type kkNeighbour struct {
	Label    *KKLabel
	Weight   graph.Weight // weight of the connecting edge
	IsParent bool
	IsChild  bool
}

// checkKK evaluates the complete 1-time MST verification at one node: the
// SP/NumK checks, the string legality checks (via hierarchy.CheckLocal) and
// the minimality checks C1/C2 of §8, all against locally stored pieces.
// It returns nil iff the node accepts. It is the reference showing that
// MarkKK's labels, whose width Table 1 and E7 report, verify in one round.
func checkKK(own *KKLabel, ownID graph.NodeID, isRoot bool, nbs []kkNeighbour) error {
	// SP and NumK.
	var parentSP *SPLabel
	var sps []*SPLabel
	var sizes []*SizeLabel
	var childSizes []*SizeLabel
	for i := range nbs {
		sps = append(sps, &nbs[i].Label.SP)
		sizes = append(sizes, &nbs[i].Label.Size)
		if nbs[i].IsParent {
			parentSP = &nbs[i].Label.SP
		}
		if nbs[i].IsChild {
			childSizes = append(childSizes, &nbs[i].Label.Size)
		}
	}
	if err := CheckSP(&own.SP, ownID, parentSP, sps); err != nil {
		return err
	}
	if err := CheckSize(&own.Size, isRoot, childSizes, sizes); err != nil {
		return err
	}

	// Strings legality (RS/EPS/Or_EndP) over tree neighbours.
	lv := &hierarchy.LocalView{
		Ell:        hierarchy.Ell(own.Size.N),
		IsTreeRoot: isRoot,
		Own:        &own.Strings,
	}
	for i := range nbs {
		if nbs[i].IsParent {
			lv.Parent = &nbs[i].Label.Strings
		}
		if nbs[i].IsChild {
			lv.Children = append(lv.Children, &nbs[i].Label.Strings)
		}
	}
	if vs := hierarchy.CheckLocal(lv); len(vs) > 0 {
		return fmt.Errorf("kk: strings: %s", vs[0])
	}

	// Piece/string alignment and piece agreement along tree edges.
	levels := own.Strings.Levels()
	if len(own.Pieces) != levels || len(own.Present) != levels {
		return fmt.Errorf("kk: piece vector length %d ≠ %d", len(own.Pieces), levels)
	}
	for j := 0; j < levels; j++ {
		if own.Present[j] != own.Strings.InFragmentAt(j) {
			return fmt.Errorf("kk: piece presence at level %d contradicts strings", j)
		}
		if own.Present[j] && own.Pieces[j].ID.Level != j {
			return fmt.Errorf("kk: piece at level %d claims level %d", j, own.Pieces[j].ID.Level)
		}
		// The fragment root's identity must be its own (uniqueness of IDs):
		// if this node is marked root of Fj, the piece must carry its ID.
		if own.Present[j] && own.Strings.RootsAt(j) == hierarchy.RootsYes &&
			own.Pieces[j].ID.RootID != ownID {
			return fmt.Errorf("kk: level-%d root piece carries foreign id %d", j, own.Pieces[j].ID.RootID)
		}
	}
	// Tree-edge agreement: parent and child in the same fragment must carry
	// the identical piece (Claim 8.3).
	for i := range nbs {
		nb := &nbs[i]
		if !nb.IsChild {
			continue
		}
		for j := 0; j < levels; j++ {
			if j < nb.Label.Strings.Levels() && nb.Label.Strings.RootsAt(j) == hierarchy.RootsNo {
				// Child is a member of my level-j fragment.
				if !own.Present[j] || !nb.Label.Present[j] {
					return fmt.Errorf("kk: missing piece on shared level-%d fragment", j)
				}
				if own.Pieces[j] != nb.Label.Pieces[j] {
					return fmt.Errorf("kk: piece disagreement with child at level %d", j)
				}
			}
		}
	}

	// Minimality checks C1 and C2 (§8) against every graph neighbour.
	for j := 0; j < levels; j++ {
		if !own.Present[j] {
			continue
		}
		mine := own.Pieces[j]
		endpoint := own.Strings.EndPAt(j) == hierarchy.EndPUp || own.Strings.EndPAt(j) == hierarchy.EndPDown
		for i := range nbs {
			nb := &nbs[i]
			theirs, present := hierarchy.Piece{}, false
			if j < len(nb.Label.Present) && nb.Label.Present[j] {
				theirs, present = nb.Label.Pieces[j], true
			}
			sameFrag := present && theirs.ID == mine.ID
			// C2: any edge leaving my level-j fragment weighs at least ω̂.
			if !sameFrag && nb.Weight < mine.W {
				return fmt.Errorf("kk: C2 at level %d: edge %d lighter than ω̂=%d", j, nb.Weight, mine.W)
			}
			// C1: the candidate endpoint's selected edge is outgoing and has
			// weight exactly ω̂.
			if endpoint && candidateEdgeIs(own, nb, j) {
				if sameFrag {
					return fmt.Errorf("kk: C1 at level %d: candidate edge is internal", j)
				}
				if nb.Weight != mine.W {
					return fmt.Errorf("kk: C1 at level %d: candidate weight %d ≠ ω̂=%d", j, nb.Weight, mine.W)
				}
			}
		}
	}
	return nil
}

// candidateEdgeIs reports whether the neighbour nb is the far endpoint of
// l's level-j candidate edge, per the EndP/Parents conventions.
func candidateEdgeIs(l *KKLabel, nb *kkNeighbour, j int) bool {
	switch l.Strings.EndPAt(j) {
	case hierarchy.EndPUp:
		return nb.IsParent
	case hierarchy.EndPDown:
		return nb.IsChild && j < nb.Label.Strings.Levels() && nb.Label.Strings.ParentsAt(j)
	}
	return false
}

func kkCheckAll(g *graph.Graph, tr *graph.Tree, labels []KKLabel) error {
	for v := 0; v < g.N(); v++ {
		var nbs []kkNeighbour
		for _, h := range g.Ports(v) {
			nb := kkNeighbour{
				Label:  &labels[h.Peer],
				Weight: g.Edge(h.Edge).W,
			}
			if tr.Parent[v] == h.Peer {
				nb.IsParent = true
			}
			if tr.Parent[h.Peer] == v {
				nb.IsChild = true
			}
			nbs = append(nbs, nb)
		}
		if err := checkKK(&labels[v], g.ID(v), v == tr.Root, nbs); err != nil {
			return err
		}
	}
	return nil
}

func TestKKAcceptsCorrectInstances(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n := 6 + int(seed%20)
		g := graph.RandomConnected(n, n-1+int(seed)%n+2, seed)
		res, err := syncmst.Simulate(g)
		if err != nil {
			t.Fatal(err)
		}
		labels := MarkKK(res.Hierarchy)
		if err := kkCheckAll(g, res.Tree, labels); err != nil {
			t.Fatalf("seed %d: correct instance rejected: %v", seed, err)
		}
	}
}

func TestKKRejectsNonMST(t *testing.T) {
	// Take a non-MST spanning tree; no matter how we label it with the real
	// marker machinery run on the wrong tree, some node must reject.
	g := graph.New(4, nil)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 2)
	e23 := g.MustAddEdge(2, 3, 3)
	e03 := g.MustAddEdge(0, 3, 10)
	_ = e23
	// Spanning tree {e01, e12, e03}: not minimal (10 > 3).
	tr, err := graph.TreeFromEdges(g, []int{e01, e12, e03}, 0)
	if err != nil {
		t.Fatal(err)
	}
	raws := []hierarchy.RawFragment{
		{Nodes: []int{0}, Cand: e01},
		{Nodes: []int{1}, Cand: e01},
		{Nodes: []int{2}, Cand: e12},
		{Nodes: []int{3}, Cand: e03},
		{Nodes: []int{0, 1}, Cand: e12},
		{Nodes: []int{0, 1, 2, 3}, Cand: -1},
	}
	h, err := hierarchy.Build(tr, raws)
	if err != nil {
		t.Fatal(err)
	}
	labels := MarkKK(h)
	if err := kkCheckAll(g, tr, labels); err == nil {
		t.Fatal("non-MST accepted by KK scheme")
	}
}

func TestKKRejectsPieceCorruptions(t *testing.T) {
	g := graph.RandomConnected(16, 34, 9)
	res, err := syncmst.Simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	base := MarkKK(res.Hierarchy)
	clone := func() []KKLabel {
		out := make([]KKLabel, len(base))
		copy(out, base)
		for v := range out {
			out[v].Pieces = append([]hierarchy.Piece(nil), base[v].Pieces...)
			out[v].Present = append([]bool(nil), base[v].Present...)
		}
		return out
	}
	// Lower a fragment's claimed min-out weight: C1 fails at the endpoint.
	ls := clone()
	for v := range ls {
		for j := range ls[v].Pieces {
			if ls[v].Present[j] && ls[v].Pieces[j].W != hierarchy.NoOutWeight {
				ls[v].Pieces[j].W--
			}
		}
	}
	if err := kkCheckAll(g, res.Tree, ls); err == nil {
		t.Fatal("lowered ω̂ accepted")
	}
	// Raise it: C2 fails at the candidate edge.
	ls = clone()
	for v := range ls {
		for j := range ls[v].Pieces {
			if ls[v].Present[j] && ls[v].Pieces[j].W != hierarchy.NoOutWeight {
				ls[v].Pieces[j].W++
			}
		}
	}
	if err := kkCheckAll(g, res.Tree, ls); err == nil {
		t.Fatal("raised ω̂ accepted")
	}
	// Single-node piece corruption: agreement along tree edges fails.
	ls = clone()
	for j := range ls[3].Pieces {
		if ls[3].Present[j] {
			ls[3].Pieces[j].ID.RootID += 1000
		}
	}
	if err := kkCheckAll(g, res.Tree, ls); err == nil {
		t.Fatal("piece id corruption accepted")
	}
}

func TestKKLabelSizeIsLogSquared(t *testing.T) {
	// KK labels grow like log² n; our verification labels like log n. Here
	// we just sanity-check the KK growth rate between n=16 and n=256.
	sizes := map[int]int{}
	for _, n := range []int{16, 256} {
		g := graph.RandomConnected(n, 2*n, int64(n))
		res, err := syncmst.Simulate(g)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, l := range MarkKK(res.Hierarchy) {
			if b := l.BitSize(); b > max {
				max = b
			}
		}
		sizes[n] = max
	}
	// log²(256)/log²(16) = 4: expect clearly more than linear-in-log (2×).
	if sizes[256] < sizes[16]*2 {
		t.Fatalf("KK labels did not grow like log²: %v", sizes)
	}
}
