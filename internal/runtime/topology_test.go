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

// TestMutateTopologyAddAndSharedGraph: an added edge is visible on the next
// round, and a second engine sharing the (already mutated) graph re-syncs
// via ResyncTopology and converges to the same per-node observations.
func TestMutateTopologyAddAndSharedGraph(t *testing.T) {
	g := testGraph()
	e1 := New(g, topoProbe{}, 1)
	e2 := New(g, topoProbe{}, 1)
	e1.RunSyncRounds(2)
	e2.RunSyncRounds(2)

	if err := e1.MutateTopology(func(g *graph.Graph) error {
		_, err := g.AddEdge(0, 2, 70)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !e2.ResyncTopology() {
		t.Fatal("journal-covered shared-graph resync must be precise")
	}
	e1.StepSync()
	e2.StepSync()
	for v := 0; v < g.N(); v++ {
		a, b := e1.State(v).(*topoState), e2.State(v).(*topoState)
		if a.Deg != b.Deg || a.WSum != b.WSum || a.Changed != b.Changed {
			t.Fatalf("node %d: engines diverged after shared mutation: %+v vs %+v", v, *a, *b)
		}
	}
	if got := e1.State(0).(*topoState).Deg; got != 3 {
		t.Fatalf("node 0 degree %d after AddEdge, want 3", got)
	}
	if got := e1.State(2).(*topoState).WSum; got != 20+30+70 {
		t.Fatalf("node 2 weight sum %d after AddEdge, want 120", got)
	}
}

// TestResyncTopologyJournalGap exercises the graceful-degradation fallback:
// when the graph's journal no longer covers the engine's last synced
// version (here forced via TrimChangeLog; in production via the maxJournal
// cap), ResyncTopology must treat every node as touched — memos dropped,
// dirty epochs bumped network-wide, CSR re-fetched, version advanced — and
// leave the engine fully functional for subsequent precise re-syncs. Port
// remapping is documented as unavailable on this path (the compaction data
// is gone), so the probe state's WatchPort is deliberately not asserted.
func TestResyncTopologyJournalGap(t *testing.T) {
	g := testGraph()
	e := New(g, topoProbe{}, 1)
	e.RunSyncRounds(3)

	// Mutate behind the engine's back, then trim the journal past it.
	if err := g.SetWeight(g.EdgeBetween(2, 3), 35); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(g.EdgeBetween(1, 3)); err != nil {
		t.Fatal(err)
	}
	g.TrimChangeLog(g.Version())
	if e.ResyncTopology() {
		t.Fatal("a journal-gap resync must report precise=false")
	}

	// Every node — not just the endpoints — must have been touched.
	for v := 0; v < g.N(); v++ {
		if e.State(v).(*topoState).memoOK {
			t.Fatalf("node %d: memo survived the full-resync fallback", v)
		}
	}
	e.StepSync()
	for v := 0; v < g.N(); v++ {
		s := e.State(v).(*topoState)
		if !s.Changed {
			t.Errorf("node %d: dirty bump missing on the fallback path", v)
		}
		if s.Deg != g.Degree(v) {
			t.Errorf("node %d: view degree %d, graph degree %d", v, s.Deg, g.Degree(v))
		}
	}
	if got := e.State(2).(*topoState).WSum; got != 20+35 {
		t.Fatalf("node 2 weight sum %d after fallback re-sync, want 55", got)
	}
	// The engine is caught up: a further journaled mutation re-syncs
	// precisely (no-op resync first, then a normal remap-capable one).
	if !e.ResyncTopology() {
		t.Fatal("an up-to-date resync must report precise=true")
	}
	if err := e.MutateTopology(func(g *graph.Graph) error {
		return g.RemoveEdge(g.EdgeBetween(0, 1))
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e.StepSync()
	if got := e.State(1).(*topoState).Deg; got != 1 {
		t.Fatalf("node 1 degree %d after post-fallback removal, want 1", got)
	}
}

// TestAppendAlarmNodes: the caller-buffer variant matches AlarmNodes and
// performs no allocation once the buffer has capacity.
func TestAppendAlarmNodes(t *testing.T) {
	g := graph.Path(6, 4)
	e := New(g, alarmMachine{bad: g.ID(3)}, 0)
	buf := e.AppendAlarmNodes(nil)
	if len(buf) != 0 {
		t.Fatalf("alarm nodes before stepping: %v", buf)
	}
	e.StepSync()
	buf = e.AppendAlarmNodes(buf[:0])
	if len(buf) != 1 || buf[0] != 3 {
		t.Fatalf("AppendAlarmNodes = %v, want [3]", buf)
	}
	if got := e.AlarmNodes(); len(got) != 1 || got[0] != buf[0] {
		t.Fatalf("AlarmNodes %v disagrees with AppendAlarmNodes %v", got, buf)
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = e.AppendAlarmNodes(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendAlarmNodes allocated %.1f times per call with a warm buffer", allocs)
	}
}
