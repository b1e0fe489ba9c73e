package runtime

import (
	"testing"

	"ssmst/internal/graph"
)

// topoState is the probe state of the topology-mutation tests: it records
// what the View exposed at the last step (degree, incident weight sum, the
// change bit) and carries a port-indexed field plus a fake memo across
// rounds, so the test can observe remapping and invalidation directly.
type topoState struct {
	Deg       int
	WSum      graph.Weight
	Changed   bool
	WatchPort int // a port captured at Init; must track its edge under compaction
	memoOK    bool
}

func (s *topoState) BitSize() int    { return 64 }
func (s *topoState) Clone() State    { c := *s; return &c }
func (s *topoState) Alarm() bool     { return false }
func (s *topoState) Done() bool      { return false }
func (s *topoState) InvalidateMemo() { s.memoOK = false }
func (s *topoState) RemapPorts(m []int) {
	if s.WatchPort >= 0 && s.WatchPort < len(m) {
		s.WatchPort = m[s.WatchPort]
	}
}

var (
	_ MemoInvalidator = (*topoState)(nil)
	_ PortRemapper    = (*topoState)(nil)
)

type topoProbe struct{}

func (topoProbe) Init(v *View) State {
	return &topoState{WatchPort: v.Degree() - 1}
}

func (topoProbe) Step(v *View, _ State) State {
	old := v.Self().(*topoState)
	s := &topoState{
		Deg:       v.Degree(),
		Changed:   v.NeighbourhoodChangedSince(int64(v.Round()) - 1),
		WatchPort: old.WatchPort,
		memoOK:    true,
	}
	for q := 0; q < v.Degree(); q++ {
		s.WSum += v.Weight(q)
	}
	return s
}

// testGraph builds the fixed 5-node mutation fixture:
//
//	0-1 (10), 1-2 (20), 2-3 (30), 3-4 (40), 4-0 (50), 1-3 (60)
func testGraph() *graph.Graph {
	g := graph.New(5, nil)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 20)
	g.MustAddEdge(2, 3, 30)
	g.MustAddEdge(3, 4, 40)
	g.MustAddEdge(4, 0, 50)
	g.MustAddEdge(1, 3, 60)
	return g
}

// TestMutateTopologyWeight: a weight change reaches the Views on the very
// next round (the CSR snapshot is patched in place), bumps the endpoints'
// dirty epochs like SetState, and drops their memos.
func TestMutateTopologyWeight(t *testing.T) {
	g := testGraph()
	e := New(g, topoProbe{}, 1)
	e.RunSyncRounds(3)
	base := e.State(0).(*topoState).WSum

	err := e.MutateTopology(func(g *graph.Graph) error {
		return g.SetWeight(g.EdgeBetween(0, 1), 15)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.State(0).(*topoState).memoOK || e.State(1).(*topoState).memoOK {
		t.Fatal("endpoint memos must be invalidated by the mutation")
	}
	if e.State(2).(*topoState).memoOK != true {
		t.Fatal("node 2 is not an endpoint; its memo must survive")
	}
	e.StepSync()
	if got := e.State(0).(*topoState).WSum; got != base+5 {
		t.Fatalf("node 0 weight sum %d after SetWeight, want %d", got, base+5)
	}
	// The endpoints and their neighbours observe the change bit; node 2 is a
	// neighbour of endpoint 1.
	for v, want := range map[int]bool{0: true, 1: true, 2: true} {
		if got := e.State(v).(*topoState).Changed; got != want {
			t.Errorf("node %d: Changed=%v, want %v after SetWeight", v, got, want)
		}
	}
	e.StepSync()
	e.StepSync()
	for v := 0; v < g.N(); v++ {
		if e.State(v).(*topoState).Changed {
			t.Errorf("node %d: topology mark did not age out", v)
		}
	}
}

// TestMutateTopologyRemove: RemoveEdge compacts ports; the engine remaps
// port-indexed state so a watched port keeps naming the same physical edge,
// and Views read the new degrees immediately.
func TestMutateTopologyRemove(t *testing.T) {
	g := testGraph()
	e := New(g, topoProbe{}, 1)
	e.RunSyncRounds(3)

	// Node 1's ports: 0→(0,1) 1→(1,2) 2→(1,3); WatchPort settled at 2.
	if got := e.State(1).(*topoState).WatchPort; got != 2 {
		t.Fatalf("node 1 watch port %d before mutation, want 2", got)
	}
	if err := e.MutateTopology(func(g *graph.Graph) error {
		return g.RemoveEdge(g.EdgeBetween(0, 1))
	}); err != nil {
		t.Fatal(err)
	}
	// Port 0 at node 1 vanished; the watched edge (1,3) slid from port 2 to 1.
	if got := e.State(1).(*topoState).WatchPort; got != 1 {
		t.Fatalf("node 1 watch port %d after compaction, want 1", got)
	}
	// Node 0 watched port 1 = (4,0); node 0's removed port was 0, so the
	// watched edge slid to port 0.
	if got := e.State(0).(*topoState).WatchPort; got != 0 {
		t.Fatalf("node 0 watch port %d after compaction, want 0", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e.StepSync()
	if got := e.State(1).(*topoState).Deg; got != 2 {
		t.Fatalf("node 1 degree %d after removal, want 2", got)
	}
	if got := e.State(1).(*topoState).WSum; got != 20+60 {
		t.Fatalf("node 1 weight sum %d after removal, want 80", got)
	}

	// Removing the watched edge itself drops the port to -1.
	if err := e.MutateTopology(func(g *graph.Graph) error {
		return g.RemoveEdge(g.EdgeBetween(1, 3))
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.State(1).(*topoState).WatchPort; got != -1 {
		t.Fatalf("node 1 watch port %d after its edge was cut, want -1", got)
	}
}

// TestMutateTopologyAddAndSharedGraph: two engines started from one graph
// each step their own copy. The same AddEdge, applied through each engine's
// MutateTopology, is visible on the next round, and the engines agree node
// for node.
func TestMutateTopologyAddAndSharedGraph(t *testing.T) {
	g := testGraph()
	e1 := New(g, topoProbe{}, 1)
	e2 := New(g.Clone(), topoProbe{}, 1)
	add := func(g *graph.Graph) error {
		_, err := g.AddEdge(0, 2, 70)
		return err
	}
	for _, e := range []*Engine{e1, e2} {
		e.RunSyncRounds(2)
		if err := e.MutateTopology(add); err != nil {
			t.Fatal(err)
		}
		e.StepSync()
	}
	for v := 0; v < g.N(); v++ {
		a, b := e1.State(v).(*topoState), e2.State(v).(*topoState)
		if a.Deg != b.Deg || a.WSum != b.WSum || a.Changed != b.Changed {
			t.Fatalf("node %d: engines diverged after the same mutation: %+v vs %+v", v, *a, *b)
		}
	}
	if got := e1.State(0).(*topoState).Deg; got != 3 {
		t.Fatalf("node 0 degree %d after AddEdge, want 3", got)
	}
	if got := e1.State(2).(*topoState).WSum; got != 20+30+70 {
		t.Fatalf("node 2 weight sum %d after AddEdge, want 120", got)
	}
}

// TestMutationOutsideMutateTopologyPanics: MutateTopology is the only way
// an engine's topology may change. After a mutation made any other way —
// on the graph directly, or through another engine sharing it — the
// engine's next round on either daemon, and its next MutateTopology call,
// panic instead of stepping on a stale CSR snapshot and stale port state.
func TestMutationOutsideMutateTopologyPanics(t *testing.T) {
	reweight := func(g *graph.Graph) error { return g.SetWeight(g.EdgeBetween(0, 1), 15) }
	cut := func(g *graph.Graph) error { return g.RemoveEdge(g.EdgeBetween(1, 3)) }
	next := []struct {
		name string
		op   func(e *Engine)
	}{
		{"StepSync", (*Engine).StepSync},
		{"StepAsync", (*Engine).StepAsync},
		{"MutateTopology", func(e *Engine) { _ = e.MutateTopology(reweight) }},
	}
	for _, c := range next {
		t.Run(c.name, func(t *testing.T) {
			g := testGraph()
			e := New(g, topoProbe{}, 1)
			e.RunSyncRounds(2)
			if err := reweight(g); err != nil {
				t.Fatal(err)
			}
			mustPanic(t, "MutateTopology", func() { c.op(e) })

			g = testGraph()
			e, other := New(g, topoProbe{}, 1), New(g, topoProbe{}, 1)
			if err := other.MutateTopology(cut); err != nil {
				t.Fatal(err)
			}
			other.StepSync() // the engine that applied the change stays usable
			mustPanic(t, "MutateTopology", func() { c.op(e) })
		})
	}
}

// TestAppendAlarmNodes: AlarmNodes, which absorbed the loop of the former
// caller-buffer variant, reports nothing (and allocates nothing) before any
// node alarms and exactly the alarming node after.
func TestAppendAlarmNodes(t *testing.T) {
	g := graph.Path(6, 4)
	e := New(g, alarmMachine{bad: g.ID(3)}, 0)
	if nodes := e.AlarmNodes(); len(nodes) != 0 {
		t.Fatalf("alarm nodes before stepping: %v", nodes)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = e.AlarmNodes() }); allocs != 0 {
		t.Fatalf("AlarmNodes allocated %.1f times per call with no alarm", allocs)
	}
	e.StepSync()
	if nodes := e.AlarmNodes(); len(nodes) != 1 || nodes[0] != 3 {
		t.Fatalf("AlarmNodes = %v, want [3]", nodes)
	}
}
