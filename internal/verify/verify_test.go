package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

func mustMark(t *testing.T, g *graph.Graph) *Labeled {
	t.Helper()
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAcceptsCorrectInstances is the fundamental completeness property: on
// a correct, marker-labeled MST the verifier never raises an alarm, over
// multiple full Ask sweeps.
func TestAcceptsCorrectInstances(t *testing.T) {
	for _, g := range []*graph.Graph{
		hierarchy.ExampleGraph(),
		graph.Path(20, 1),
		graph.RandomConnected(40, 100, 2),
		graph.Grid(5, 6, 3),
		graph.Star(16, 4),
		graph.Ring(24, 5),
	} {
		l := mustMark(t, g)
		r := NewRunner(l, Sync, 7)
		if err := r.RunQuiet(DetectionBudget(g.N())); err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
	}
}

func TestAcceptsCorrectInstancesAsync(t *testing.T) {
	g := graph.RandomConnected(30, 70, 9)
	l := mustMark(t, g)
	r := NewRunner(l, Async, 3)
	r.Eng.Jitter = 0.4
	if err := r.RunQuiet(DetectionBudget(g.N())); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNonMSTTrees: a spanning tree that is not minimal must be
// rejected no matter which ω̂ convention the (adversarial) marker uses.
func TestRejectsNonMSTTrees(t *testing.T) {
	g := graph.RandomConnected(24, 60, 11)
	mst, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	// Build a non-MST spanning tree: swap a tree edge for a heavier
	// non-tree edge across the same cut.
	inTree := make(map[int]bool, len(mst))
	for _, e := range mst {
		inTree[e] = true
	}
	var alt []int
	found := false
	for e := 0; e < g.M() && !found; e++ {
		if inTree[e] {
			continue
		}
		// Replace the heaviest tree edge on the cycle closed by e.
		ed := g.Edge(e)
		tr, _ := graph.TreeFromEdges(g, mst, ed.U)
		// Walk up from ed.V to ed.U collecting path edges.
		for x := ed.V; x != ed.U; x = tr.Parent[x] {
			pe := tr.ParentEdge[x]
			if g.Edge(pe).W < ed.W {
				alt = alt[:0]
				for _, te := range mst {
					if te != pe {
						alt = append(alt, te)
					}
				}
				alt = append(alt, e)
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("could not build a non-MST spanning tree")
	}
	if graph.IsMST(g, alt, graph.ByWeight(g)) {
		t.Fatal("alternative tree is still minimal")
	}
	for _, override := range []bool{false, true} {
		l, err := MarkTree(g, alt, override)
		if err != nil {
			t.Fatalf("override=%v: %v", override, err)
		}
		r := NewRunner(l, Sync, 5)
		rounds, nodes, ok := r.RunUntilAlarm(DetectionBudget(g.N()))
		if !ok {
			t.Fatalf("override=%v: non-MST not detected", override)
		}
		if len(nodes) == 0 {
			t.Fatal("no alarm nodes")
		}
		t.Logf("override=%v: detected after %d rounds at %v", override, rounds, nodes)
	}
}

// TestMarkTreeOnMSTAccepts: MarkTree on the true MST must be accepted —
// the rejection above is about minimality, not the labeling path.
func TestMarkTreeOnMSTAccepts(t *testing.T) {
	g := graph.RandomConnected(24, 60, 13)
	mst, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	l, err := MarkTree(g, mst, false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, 5)
	if err := r.RunQuiet(DetectionBudget(g.N())); err != nil {
		t.Fatal(err)
	}
}

// TestMarkTreeRejectsBadEdgeIDs: a tree edge id outside [0, M) is reported
// as an error naming the first bad id, under both ω̂ claims, before any
// tree graph is built.
func TestMarkTreeRejectsBadEdgeIDs(t *testing.T) {
	g := graph.RandomConnected(4, 3, 1)
	for _, override := range []bool{false, true} {
		for _, edges := range [][]int{{0, 1, 7}, {0, -1, 9}} {
			l, err := MarkTree(g, edges, override)
			if err == nil || l != nil {
				t.Fatalf("edges %v: got (%v, %v), want an error", edges, l, err)
			}
			bad := edges[1]
			if bad >= 0 {
				bad = edges[2]
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("id %d ", bad)) {
				t.Fatalf("edges %v: error %q does not name the first bad id %d", edges, err, bad)
			}
		}
	}
}

// TestMarkRejectsTinyGraphs: below 2 nodes there is nothing to partition,
// and the verifier rejects such a network outright, so both markers say so
// instead of failing deep inside the partitioner.
func TestMarkRejectsTinyGraphs(t *testing.T) {
	for n := 0; n < 2; n++ {
		g := graph.New(n, nil)
		for name, mark := range map[string]func() (*Labeled, error){
			"Mark":     func() (*Labeled, error) { return Mark(g) },
			"MarkTree": func() (*Labeled, error) { return MarkTree(g, nil, false) },
		} {
			l, err := mark()
			if err == nil || l != nil {
				t.Fatalf("%s n=%d: got (%v, %v), want an error", name, n, l, err)
			}
			if !strings.Contains(err.Error(), "at least 2 nodes") {
				t.Fatalf("%s n=%d: error %q does not say why", name, n, err)
			}
		}
	}
}

// TestRunnersRejectNilLabeled: every runner constructor names the nil
// marked instance instead of dereferencing it.
func TestRunnersRejectNilLabeled(t *testing.T) {
	for name, build := range map[string]func(){
		"NewRunner":            func() { NewRunner(nil, Sync, 1) },
		"NewWorklistRunner":    func() { NewWorklistRunner(nil, 1) },
		"NewFullRecheckRunner": func() { NewFullRecheckRunner(nil, Async, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "nil *Labeled") {
					t.Errorf("%s(nil): panic %q does not name the nil *Labeled", name, msg)
				}
			}()
			build()
		}()
	}
}

// TestDetectsEveryFaultKind: every fault in the menu is detected within the
// budget (after the instance had stabilized), and transient train faults
// recover without permanent alarms.
func TestDetectsEveryFaultKind(t *testing.T) {
	g := graph.RandomConnected(32, 80, 17)
	budget := DetectionBudget(g.N())
	for kind := 0; kind < int(numFaultKinds); kind++ {
		l := mustMark(t, g)
		r := NewRunner(l, Sync, int64(kind)+1)
		r.Eng.RunSyncRounds(budget / 2) // warm up: trains cycling, sampler sweeping
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("kind %d: alarm before fault", kind)
		}
		rng := rand.New(rand.NewSource(int64(kind) * 7))
		node := rng.Intn(g.N())
		if !r.InjectKind(node, FaultKind(kind), rng) {
			// Try other nodes until the fault applies.
			applied := false
			for v := 0; v < g.N(); v++ {
				if r.InjectKind(v, FaultKind(kind), rng) {
					node, applied = v, true
					break
				}
			}
			if !applied {
				t.Fatalf("kind %d: could not apply fault", kind)
			}
		}
		if FaultKind(kind) == FaultTrainDyn {
			// Transient state corruption on a correct instance: alarms (if
			// any) must clear; labels are intact.
			if _, ok := r.RunUntilQuiet(4*budget, budget/4); !ok {
				t.Fatalf("kind %d: transient fault never settled", kind)
			}
			continue
		}
		rounds, nodes, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			t.Fatalf("kind %d at node %d: fault not detected within %d rounds", kind, node, 2*budget)
		}
		dists := DetectionDistance(g, []int{node}, nodes)
		t.Logf("kind %d: detected in %d rounds at distance %d", kind, rounds, dists[0])
	}
}

// TestLabelMemoryLogarithmic: the full label block plus verifier state is
// O(log n) bits — measured (experiment E7).
func TestLabelMemoryLogarithmic(t *testing.T) {
	type pt struct{ n, label, state int }
	var pts []pt
	for _, n := range []int{16, 64, 256} {
		g := graph.RandomConnected(n, 2*n, int64(n))
		l := mustMark(t, g)
		r := NewRunner(l, Sync, 1)
		r.Eng.RunSyncRounds(50)
		pts = append(pts, pt{n, l.MaxLabelBits(), r.Eng.MaxStateBits()})
	}
	// 16× growth in n must stay within ~3× bit growth (log-like), far from
	// the ~log² growth of the KK baseline.
	if pts[2].label > 3*pts[0].label {
		t.Errorf("label growth not logarithmic: %+v", pts)
	}
	if pts[2].state > 3*pts[0].state {
		t.Errorf("state growth not logarithmic: %+v", pts)
	}
	t.Logf("memory: %+v", pts)
}

// TestConstructionTimeLinear: marker time is O(n) (Corollary 6.11).
func TestConstructionTimeLinear(t *testing.T) {
	var prev int
	for _, n := range []int{32, 64, 128, 256} {
		g := graph.RandomConnected(n, 2*n, int64(n)+3)
		l := mustMark(t, g)
		if l.ConstructionTime > 150*n {
			t.Errorf("n=%d: construction time %d not O(n)-like", n, l.ConstructionTime)
		}
		prev = l.ConstructionTime
	}
	_ = prev
}

// TestDetectionDistanceSmall: for one fault, some node within O(log n)
// hops alarms (Theorem 8.5 with f=1).
func TestDetectionDistanceSmall(t *testing.T) {
	g := graph.Grid(8, 8, 21) // diameter 14, n=64
	budget := DetectionBudget(g.N())
	rng := rand.New(rand.NewSource(5))
	worst := 0
	for trial := 0; trial < 5; trial++ {
		l := mustMark(t, g)
		r := NewRunner(l, Sync, int64(trial))
		r.Eng.RunSyncRounds(budget / 2)
		node := rng.Intn(g.N())
		if !r.InjectKind(node, FaultStoredPieceW, rng) {
			continue
		}
		_, alarms, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			t.Fatalf("trial %d: not detected", trial)
		}
		d := DetectionDistance(g, []int{node}, alarms)[0]
		if d > worst {
			worst = d
		}
	}
	lam := 8 // λ(64)
	if worst > 4*lam {
		t.Errorf("detection distance %d exceeds O(log n) shape (λ=%d)", worst, lam)
	}
	t.Logf("worst single-fault detection distance: %d", worst)
}
