package hierarchy

import (
	"ssmst/internal/graph"
)

// This file encodes the paper's worked example: the 18-node tree of
// Figure 1 and the label strings of Table 2. The tree was reconstructed
// from the figure and cross-checked entry by entry against all four string
// tables (Roots, EndP, Parents, Or_EndP); the golden test
// TestPaperFigure1Table2 regenerates Table 2 from our marker and compares it
// with the paper's values (experiment E2).
//
// Node letters a..r map to indices 0..17. The tree (root l):
//
//	l ── q(3), m(17), k(20), g(22)
//	m ── r(7), n(14)
//	k ── j(4), p(16);  p ── o(8)
//	g ── f(6), c(12), h(21)
//	f ── b(18);  b ── a(2)
//	h ── d(10), i(11);  i ── e(15)
//
// Edge labels are weights; the 17 weights are exactly the figure's
// {2,3,4,6,7,8,10,11,12,14,15,16,17,18,20,21,22}.

// ExampleNames maps node index to the paper's node letter.
var ExampleNames = []string{
	"a", "b", "c", "d", "e", "f", "g", "h", "i",
	"j", "k", "l", "m", "n", "o", "p", "q", "r",
}

const (
	exA = iota
	exB
	exC
	exD
	exE
	exF
	exG
	exH
	exI
	exJ
	exK
	exL
	exM
	exN
	exO
	exP
	exQ
	exR
)

// ExampleGraph returns the Figure 1 tree as a graph (G = T: a tree is its
// own MST, which is what Figure 1 depicts — non-tree edges are omitted
// there). Node identities are chosen so that every mutual-merge handshake of
// SYNC_MST elects the roots shown in Table 2 (in particular ID(l) > ID(g) so
// the final tree is rooted at l).
func ExampleGraph() *graph.Graph {
	ids := []graph.NodeID{
		exA: 1, exB: 2, exC: 15, exD: 5, exE: 16, exF: 3, exG: 4, exH: 6,
		exI: 17, exJ: 7, exK: 8, exL: 18, exM: 13, exN: 14, exO: 9,
		exP: 10, exQ: 11, exR: 12,
	}
	g := graph.New(18, ids)
	type e struct {
		u, v int
		w    graph.Weight
	}
	for _, ed := range []e{
		{exA, exB, 2}, {exL, exQ, 3}, {exJ, exK, 4}, {exF, exG, 6},
		{exM, exR, 7}, {exO, exP, 8}, {exD, exH, 10}, {exH, exI, 11},
		{exC, exG, 12}, {exM, exN, 14}, {exE, exI, 15}, {exK, exP, 16},
		{exL, exM, 17}, {exB, exF, 18}, {exK, exL, 20}, {exG, exH, 21},
		{exG, exL, 22},
	} {
		g.MustAddEdge(ed.u, ed.v, ed.w)
	}
	return g
}

// ExampleTree returns the Figure 1 tree rooted at l with the parent
// orientation implied by Table 2.
func ExampleTree() (*graph.Tree, error) {
	g := ExampleGraph()
	parent := []int{
		exA: exB, exB: exF, exC: exG, exD: exH, exE: exI, exF: exG,
		exG: exL, exH: exG, exI: exH, exJ: exK, exK: exL, exL: -1,
		exM: exL, exN: exM, exO: exP, exP: exK, exQ: exL, exR: exM,
	}
	return graph.NewTree(g, exL, parent)
}

// ExampleHierarchy returns the Figure 1 hierarchy: the active fragments of
// SYNC_MST on the example tree, levels 0 through 4.
func ExampleHierarchy() (*Hierarchy, error) {
	t, err := ExampleTree()
	if err != nil {
		return nil, err
	}
	g := t.G
	ce := func(u, v int) int { return g.EdgeBetween(u, v) }
	var raws []RawFragment
	// Level 0: singletons with their minimum incident edge as candidate.
	singletonCands := [][2]int{
		{exA, ce(exA, exB)}, {exB, ce(exA, exB)}, {exC, ce(exC, exG)},
		{exD, ce(exD, exH)}, {exE, ce(exE, exI)}, {exF, ce(exF, exG)},
		{exG, ce(exF, exG)}, {exH, ce(exD, exH)}, {exI, ce(exH, exI)},
		{exJ, ce(exJ, exK)}, {exK, ce(exJ, exK)}, {exL, ce(exL, exQ)},
		{exM, ce(exM, exR)}, {exN, ce(exM, exN)}, {exO, ce(exO, exP)},
		{exP, ce(exO, exP)}, {exQ, ce(exL, exQ)}, {exR, ce(exM, exR)},
	}
	for _, sc := range singletonCands {
		raws = append(raws, RawFragment{Nodes: []int{sc[0]}, Cand: sc[1]})
	}
	// Level 1.
	raws = append(raws,
		RawFragment{Nodes: []int{exA, exB}, Cand: ce(exB, exF)},
		RawFragment{Nodes: []int{exC, exF, exG}, Cand: ce(exB, exF)},
		RawFragment{Nodes: []int{exJ, exK}, Cand: ce(exK, exP)},
		RawFragment{Nodes: []int{exO, exP}, Cand: ce(exK, exP)},
		RawFragment{Nodes: []int{exL, exQ}, Cand: ce(exL, exM)},
		RawFragment{Nodes: []int{exM, exN, exR}, Cand: ce(exL, exM)},
	)
	// Level 2.
	raws = append(raws,
		RawFragment{Nodes: []int{exA, exB, exC, exF, exG}, Cand: ce(exG, exH)},
		RawFragment{Nodes: []int{exD, exE, exH, exI}, Cand: ce(exG, exH)},
		RawFragment{Nodes: []int{exJ, exK, exO, exP}, Cand: ce(exK, exL)},
		RawFragment{Nodes: []int{exL, exM, exN, exQ, exR}, Cand: ce(exK, exL)},
	)
	// Level 3.
	raws = append(raws,
		RawFragment{Nodes: []int{exA, exB, exC, exD, exE, exF, exG, exH, exI}, Cand: ce(exG, exL)},
		RawFragment{Nodes: []int{exJ, exK, exL, exM, exN, exO, exP, exQ, exR}, Cand: ce(exG, exL)},
	)
	// Level 4: the whole tree.
	all := make([]int, 18)
	for i := range all {
		all[i] = i
	}
	raws = append(raws, RawFragment{Nodes: all, Cand: -1})
	return Build(t, raws)
}

// Table2Row is one row of the paper's Table 2: the four strings with
// entries for levels 0..4. Symbols: Roots over {1,0,*}; EndP over {u,d,n,*}
// (up/down/none/star); Parents and Or_EndP over {0,1}.
type Table2Row struct {
	Roots   string
	EndP    string
	Parents string
	OrEndP  string
}

// ExampleTable2 returns the expected strings of Table 2, indexed by node.
func ExampleTable2() []Table2Row {
	return []Table2Row{
		exA: {"10000", "unnnn", "10000", "10000"},
		exB: {"11000", "dunnn", "01000", "11000"},
		exC: {"10000", "unnnn", "00000", "10000"},
		exD: {"1*000", "u*nnn", "10000", "10000"},
		exE: {"1*000", "u*nnn", "00000", "10000"},
		exF: {"10000", "udnnn", "10000", "11000"},
		exG: {"11110", "dndun", "00010", "11110"},
		exH: {"1*100", "d*unn", "00100", "10100"},
		exI: {"1*000", "u*nnn", "00000", "10000"},
		exJ: {"10000", "unnnn", "10000", "10000"},
		exK: {"11100", "ddunn", "00100", "11100"},
		exL: {"11111", "ddddn", "00000", "11110"},
		exM: {"11000", "dunnn", "01000", "11000"},
		exN: {"10000", "unnnn", "00000", "10000"},
		exO: {"10000", "unnnn", "10000", "10000"},
		exP: {"11000", "dunnn", "01000", "11000"},
		exQ: {"10000", "unnnn", "10000", "10000"},
		exR: {"10000", "unnnn", "10000", "10000"},
	}
}

// FormatStrings renders marker output in Table 2 notation for comparison:
// the strings' canonical byte form, one symbol per level.
func FormatStrings(s *Strings) (roots, endP, parents, orEndP string) {
	k := s.Levels()
	rb, eb, pb, ob := make([]byte, k), make([]byte, k), make([]byte, k), make([]byte, k)
	for j := 0; j < k; j++ {
		rb[j], eb[j] = s.RootsAt(j), s.EndPAt(j)
		pb[j], ob[j] = '0', '0'
		if s.ParentsAt(j) {
			pb[j] = '1'
		}
		if s.OrEndPAt(j) {
			ob[j] = '1'
		}
	}
	return string(rb), string(eb), string(pb), string(ob)
}
