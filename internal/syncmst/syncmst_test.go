package syncmst

import (
	"math"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
)

func sameEdgeSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimulateProducesMST(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(9, 1),
		graph.Ring(12, 2),
		graph.Grid(4, 5, 3),
		graph.Complete(10, 4),
		graph.RandomConnected(25, 60, 5),
		graph.Star(8, 6),
		graph.Lollipop(14, 5, 7),
	}
	for i, g := range cases {
		res, err := Simulate(g)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		kruskal, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEdgeSets(res.Tree.EdgeSet(), kruskal) {
			t.Fatalf("case %d: tree differs from Kruskal", i)
		}
		if err := res.Hierarchy.CheckMinimality(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestSimulateManySeeds(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		n := 4 + int(seed%29)
		m := n - 1 + int(seed*3%int64(n))
		g := graph.RandomConnected(n, m, seed)
		res, err := Simulate(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kruskal, _ := graph.Kruskal(g, graph.ByWeight(g))
		if !sameEdgeSets(res.Tree.EdgeSet(), kruskal) {
			t.Fatalf("seed %d: tree differs from Kruskal", seed)
		}
	}
}

func TestSimulateMatchesPaperExample(t *testing.T) {
	g := hierarchy.ExampleGraph()
	res, err := Simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hierarchy.ExampleHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root != want.Tree.Root {
		t.Fatalf("root %d, want %d (node l)", res.Tree.Root, want.Tree.Root)
	}
	if len(res.Hierarchy.Frags) != len(want.Frags) {
		t.Fatalf("fragments %d, want %d", len(res.Hierarchy.Frags), len(want.Frags))
	}
	// Same fragment memberships and candidates at every (node, level).
	for v := 0; v < g.N(); v++ {
		for j := 0; j <= want.Ell(); j++ {
			a, b := res.Hierarchy.FragAt(v, j), want.FragAt(v, j)
			if (a < 0) != (b < 0) {
				t.Fatalf("node %s level %d membership differs", hierarchy.ExampleNames[v], j)
			}
			if a >= 0 {
				fa, fb := res.Hierarchy.Frags[a], want.Frags[b]
				if fa.Cand != fb.Cand || fa.Root != fb.Root {
					t.Fatalf("node %s level %d fragment differs: cand %d/%d root %d/%d",
						hierarchy.ExampleNames[v], j, fa.Cand, fb.Cand, fa.Root, fb.Root)
				}
			}
		}
	}
	// The marker strings must therefore reproduce Table 2 from the
	// construction run as well.
	got := hierarchy.MarkStrings(res.Hierarchy)
	want2 := hierarchy.ExampleTable2()
	for v := range got {
		roots, endP, parents, orEndP := hierarchy.FormatStrings(&got[v])
		if roots != want2[v].Roots || endP != want2[v].EndP ||
			parents != want2[v].Parents || orEndP != want2[v].OrEndP {
			t.Errorf("node %s strings differ from Table 2", hierarchy.ExampleNames[v])
		}
	}
}

func TestSimulateLinearTime(t *testing.T) {
	// Rounds = 22·2^ℓ − 1 with 2^ℓ ≤ n: at most 44n, the paper's O(n).
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		g := graph.RandomConnected(n, 3*n, int64(n))
		res, err := Simulate(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > 44*n {
			t.Fatalf("n=%d: %d rounds exceeds 44n", n, res.Rounds)
		}
		if res.Phases > int(math.Log2(float64(n)))+2 {
			t.Fatalf("n=%d: %d phases", n, res.Phases)
		}
	}
}

func TestRegisterMatchesSimulatorSmall(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(2, 11),
		graph.Path(5, 12),
		graph.Ring(6, 13),
		graph.Star(6, 14),
		graph.Complete(6, 15),
		graph.RandomConnected(10, 20, 16),
		graph.Grid(3, 4, 17),
		hierarchy.ExampleGraph(),
	}
	for i, g := range cases {
		sim, err := Simulate(g)
		if err != nil {
			t.Fatalf("case %d sim: %v", i, err)
		}
		reg, _, err := RunRegister(g, 1, 200*g.N()+500)
		if err != nil {
			t.Fatalf("case %d register: %v", i, err)
		}
		if reg.Root != sim.Tree.Root {
			t.Fatalf("case %d: register root %d, simulator root %d", i, reg.Root, sim.Tree.Root)
		}
		if !sameEdgeSets(reg.EdgeSet(), sim.Tree.EdgeSet()) {
			t.Fatalf("case %d: register tree differs from simulator", i)
		}
	}
}

func TestRegisterMatchesSimulatorRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(20); seed < 45; seed++ {
		n := 5 + int(seed%20)
		g := graph.RandomConnected(n, n-1+int(seed)%n, seed)
		sim, err := Simulate(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reg, _, err := RunRegister(g, seed, 200*n+500)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if reg.Root != sim.Tree.Root || !sameEdgeSets(reg.EdgeSet(), sim.Tree.EdgeSet()) {
			t.Fatalf("seed %d: register/simulator mismatch", seed)
		}
	}
}

func TestRegisterTerminatesWithinPaperBound(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		g := graph.RandomConnected(n, 2*n, int64(n)+100)
		_, eng, err := RunRegister(g, 3, 200*n+500)
		if err != nil {
			t.Fatal(err)
		}
		// 22·2^ℓ + n slack for the Done wave; 2^ℓ ≤ n.
		if eng.Round() > 44*n+n+22 {
			t.Fatalf("n=%d: register run took %d rounds", n, eng.Round())
		}
	}
}

func TestRegisterMemoryIsLogarithmic(t *testing.T) {
	// Measured bits per node must grow like c·log n, not like n or log²n.
	type pt struct{ n, bitsMax int }
	var pts []pt
	for _, n := range []int{8, 32, 128} {
		g := graph.RandomConnected(n, 2*n, int64(n))
		_, eng, err := RunRegister(g, 5, 400*n+500)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt{n, eng.MaxStateBits()})
	}
	// Growth from n=8 to n=128 (16×) should be bounded by a constant factor
	// (log growth), far below linear growth.
	if pts[2].bitsMax > 3*pts[0].bitsMax {
		t.Fatalf("memory grows too fast: %v", pts)
	}
	if pts[2].bitsMax > 40*int(math.Log2(128)) {
		t.Fatalf("memory %d bits at n=128 not O(log n)-like", pts[2].bitsMax)
	}
}

func TestPhaseOf(t *testing.T) {
	cases := []struct{ r, p int }{
		{0, -1}, {10, -1}, {11, 0}, {21, 0}, {22, 1}, {43, 1}, {44, 2}, {87, 2}, {88, 3},
	}
	for _, c := range cases {
		if got := PhaseOf(c.r); got != c.p {
			t.Errorf("PhaseOf(%d) = %d, want %d", c.r, got, c.p)
		}
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	g := graph.New(4, nil)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 2)
	if _, err := Simulate(g); err == nil {
		t.Fatal("disconnected accepted")
	}
	dup := graph.WithDuplicateWeights(graph.Complete(5, 1), 2)
	if _, err := Simulate(dup); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

// TestSimulateTreeOnMSTMatchesSimulate: restricted to the MST's own edges,
// the phase loop selects exactly the edges it selects on the whole graph (a
// fragment's minimum outgoing edge is an MST edge), so SimulateTree must
// return Simulate's result field for field — tree, hierarchy, rounds and
// phases — on every family.
func TestSimulateTreeOnMSTMatchesSimulate(t *testing.T) {
	for _, family := range graph.Families() {
		for _, n := range []int{8, 17, 256, 1024} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.ByFamily(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Simulate(g)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SimulateTree(g, want.Tree.EdgeSet())
				if err != nil {
					t.Fatalf("%s n=%d seed %d: %v", family, n, seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d seed %d: SimulateTree on the MST differs from Simulate", family, n, seed)
				}
			}
		}
	}
}

// TestSimulateTreeRejectsBadInput: an edge set that is not a spanning tree,
// or a tree with repeated weights, is an error. Repeated weights off the
// tree are not.
func TestSimulateTreeRejectsBadInput(t *testing.T) {
	// A triangle 0–1–2 (edges 0, 1, 2) with a pendant edge 2–3 (edge 3);
	// edges 1 and 2 share a weight.
	g := graph.New(4, nil)
	for _, e := range []struct {
		u, v int
		w    graph.Weight
	}{{0, 1, 1}, {1, 2, 5}, {2, 0, 5}, {2, 3, 3}} {
		g.MustAddEdge(e.u, e.v, e.w)
	}
	for _, tc := range []struct {
		name  string
		edges []int
	}{
		{"not spanning", []int{0, 3}},
		{"n-1 edges with a cycle", []int{0, 1, 2}},
		{"repeated tree weights", []int{1, 2, 3}},
	} {
		if _, err := SimulateTree(g, tc.edges); err == nil {
			t.Errorf("%s: SimulateTree accepted %v", tc.name, tc.edges)
		}
	}
	res, err := SimulateTree(g, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeSets(res.Tree.EdgeSet(), []int{0, 1, 3}) {
		t.Fatalf("tree %v, want the given edges", res.Tree.EdgeSet())
	}
}

// TestNextTrigger: NextTrigger(s, r) is the first round t ≥ r at which
// StepCoreInto's dependence on the round changes from round t−1's — its
// phase, the find, examine and change-root thresholds, the handshake round
// — and never comes for a finished state.
func TestNextTrigger(t *testing.T) {
	flag := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	preds := func(r int) [5]int {
		p := PhaseOf(r)
		if p < 0 {
			return [5]int{-1}
		}
		b := 1 << p
		return [5]int{p, flag(r >= 15*b), flag(r >= 17*b), flag(r >= 19*b), flag(r == 22*b-1)}
	}
	s := NewState(1)
	for r := 0; r < 6000; r++ {
		want := r
		for want == 0 || preds(want) == preds(want-1) {
			want++
		}
		if got := NextTrigger(s, r); got != want {
			t.Fatalf("NextTrigger(r=%d) = %d, want %d", r, got, want)
		}
	}
	s.Finished = true
	if got := NextTrigger(s, 100); got != math.MaxInt {
		t.Fatalf("finished state: NextTrigger = %d, want never", got)
	}
}

// TestStepFixedBetweenTriggers runs the register program and checks the
// property the transformer's coasting relies on: a node whose step left it
// unchanged, and whose neighbours did not change either, stays unchanged
// at the next round unless that round is a trigger (NextTrigger).
func TestStepFixedBetweenTriggers(t *testing.T) {
	for _, g := range []*graph.Graph{graph.RandomConnected(64, 160, 3), graph.Grid(6, 7, 2), graph.Path(20, 4)} {
		eng := runtime.New(g, Machine{}, 1)
		snap := func() []State {
			out := make([]State, g.N())
			for v := range out {
				out[v] = *eng.State(v).(*State)
			}
			return out
		}
		prev, cur := snap(), []State(nil)
		eng.StepSync()
		cur = snap()
		checked := 0
		for r := 1; !eng.AllDone() && r < 4000; r++ {
			eng.StepSync()
			next := snap()
			for v := 0; v < g.N(); v++ {
				still := cur[v] == prev[v]
				for q := 0; still && q < g.Degree(v); q++ {
					u := g.Half(v, q).Peer
					still = cur[u] == prev[u]
				}
				if !still || NextTrigger(&cur[v], r) == r {
					continue
				}
				checked++
				if next[v] != cur[v] {
					t.Fatalf("n=%d node %d round %d: unchanged inputs off a trigger, but the state changed\nbefore %+v\nafter  %+v", g.N(), v, r, cur[v], next[v])
				}
			}
			prev, cur = cur, next
		}
		if checked == 0 {
			t.Fatalf("n=%d: no node step was checked", g.N())
		}
	}
}
