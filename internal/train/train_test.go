package train

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/partition"
	"ssmst/internal/runtime"
	"ssmst/internal/syncmst"
)

type fixture struct {
	g       *graph.Graph
	tree    *graph.Tree
	h       *hierarchy.Hierarchy
	p       *partition.Partitions
	labels  []NodeLabels
	strings []hierarchy.Strings
}

func makeFixture(t *testing.T, g *graph.Graph) *fixture {
	t.Helper()
	res, err := syncmst.Simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Compute(res.Hierarchy)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		g:       g,
		tree:    res.Tree,
		h:       res.Hierarchy,
		p:       p,
		labels:  Mark(p),
		strings: hierarchy.MarkStrings(res.Hierarchy),
	}
}

// testMachine runs the two trains of every node in isolation (no sampler,
// no string verification) over a marker-labeled tree. The full verifier of
// internal/verify embeds the same StepInto logic; this machine exists so the
// train's delivery, timing and self-stabilization properties (Theorem 7.1,
// experiment E11) can be tested on their own.
type testMachine struct {
	Tree    *graph.Tree
	Labels  []NodeLabels
	Strings []hierarchy.Strings
	N       int
}

// tmState is the dynamic state of one node under testMachine.
type tmState struct {
	TopS State
	BotS State
}

// BitSize measures both trains.
func (s *tmState) BitSize() int { return s.TopS.BitSize() + s.BotS.BitSize() }

// Clone returns a deep copy.
func (s *tmState) Clone() runtime.State { c := *s; return &c }

// Alarm reports a cycle-set violation on either train.
func (s *tmState) Alarm() bool { return s.TopS.Alarm || s.BotS.Alarm }

// Done implements runtime.State: the trains run forever.
func (s *tmState) Done() bool { return false }

var _ runtime.Machine = (*testMachine)(nil)

// Init starts with quiescent trains (the marker initializes only labels;
// dynamic train state always self-starts).
func (m *testMachine) Init(v *runtime.View) runtime.State { return &tmState{} }

// Step advances both trains of one node into a fresh state (scratch is
// not recycled).
func (m *testMachine) Step(v *runtime.View, _ runtime.State) runtime.State {
	old := v.Self().(*tmState)
	node := v.Node()
	next := &tmState{}
	for _, top := range []bool{true, false} {
		ctx := &Ctx{
			OwnID:   v.ID(),
			Strings: &m.Strings[node],
			N:       m.N,
			Top:     top,
		}
		var oldT *State
		if top {
			ctx.Lab = &m.Labels[node].Top
			oldT = &old.TopS
		} else {
			ctx.Lab = &m.Labels[node].Bottom
			oldT = &old.BotS
		}
		if p := m.Tree.Parent[node]; p >= 0 {
			port := m.Tree.G.PortTo(node, p)
			ps := v.Neighbour(port).(*tmState)
			ctx.Parent = &PeerTrain{S: pickState(ps, top), L: pick(&m.Labels[p], top)}
		}
		for _, c := range m.Tree.Children(node) {
			port := m.Tree.G.PortTo(node, c)
			cs := v.Neighbour(port).(*tmState)
			ctx.Children = append(ctx.Children, PeerTrain{
				S: pickState(cs, top),
				L: pick(&m.Labels[c], top),
			})
		}
		if top {
			StepInto(&next.TopS, oldT, ctx)
		} else {
			StepInto(&next.BotS, oldT, ctx)
		}
	}
	return next
}

func pickState(s *tmState, top bool) *State {
	if top {
		return &s.TopS
	}
	return &s.BotS
}

func (f *fixture) machine(n int) *testMachine {
	return &testMachine{Tree: f.tree, Labels: f.labels, Strings: f.strings, N: n}
}

func labelNbs(f *fixture, v int) []NeighbourLabels {
	var nbs []NeighbourLabels
	for port, h := range f.g.Ports(v) {
		nb := NeighbourLabels{Port: port, L: &f.labels[h.Peer]}
		if f.tree.Parent[v] == h.Peer {
			nb.IsParent = true
		}
		if f.tree.Parent[h.Peer] == v {
			nb.IsChild = true
		}
		nbs = append(nbs, nb)
	}
	return nbs
}

func TestMarkedLabelsPassChecks(t *testing.T) {
	for _, g := range []*graph.Graph{
		hierarchy.ExampleGraph(),
		graph.Path(40, 1),
		graph.RandomConnected(60, 150, 2),
		graph.Grid(6, 8, 3),
		graph.Star(25, 4),
	} {
		f := makeFixture(t, g)
		for v := 0; v < g.N(); v++ {
			err := CheckLabels(&f.labels[v], g.ID(v), v == f.tree.Root, g.N(), labelNbs(f, v))
			if err != nil {
				t.Fatalf("n=%d node %d: %v", g.N(), v, err)
			}
		}
	}
}

func TestLabelChecksCatchCorruptions(t *testing.T) {
	f := makeFixture(t, graph.RandomConnected(40, 90, 5))
	g := f.g
	rng := rand.New(rand.NewSource(77))
	caught, attempted := 0, 0
	for trial := 0; trial < 200; trial++ {
		labels := make([]NodeLabels, len(f.labels))
		for i := range f.labels {
			labels[i] = f.labels[i]
		}
		v := rng.Intn(g.N())
		l := &labels[v].Top
		if rng.Intn(2) == 0 {
			l = &labels[v].Bottom
		}
		switch rng.Intn(6) {
		case 0:
			l.PosStart += int32(1 + rng.Intn(3))
		case 1:
			l.SubCnt += 1
		case 2:
			l.K += int32(1 + rng.Intn(3))
		case 3:
			l.Depth += 1
		case 4:
			l.PartRootID += 999
		case 5:
			if st := l.Stored(); len(st) > 0 {
				l.SetStored(st[:len(st)-1])
				l.Cnt--
				l.SubCnt--
			} else {
				continue
			}
		}
		attempted++
		bak := f.labels
		f.labels = labels
		found := false
		for u := 0; u < g.N(); u++ {
			if CheckLabels(&labels[u], g.ID(u), u == f.tree.Root, g.N(), labelNbs(f, u)) != nil {
				found = true
				break
			}
		}
		f.labels = bak
		if found {
			caught++
		}
	}
	// Every structural corruption must be caught somewhere: the position
	// algebra (windows, sums, depths, part roots) is rigid.
	if caught != attempted {
		t.Fatalf("only %d/%d label corruptions caught", caught, attempted)
	}
}

// coverageTime runs the machine until every node has seen, on each train,
// a member piece for every needed level; returns rounds taken.
func coverageTime(t *testing.T, f *fixture, maxRounds int, async bool, seed int64) int {
	t.Helper()
	n := f.g.N()
	eng := runtime.New(f.g, f.machine(n), seed)
	if async {
		eng.Jitter = 0.4
	}
	needTop := make([]map[int]bool, n)
	needBot := make([]map[int]bool, n)
	remaining := 0
	for v := 0; v < n; v++ {
		topL, botL := AppendNeededLevels(nil, nil, &f.strings[v], n)
		needTop[v] = map[int]bool{}
		needBot[v] = map[int]bool{}
		for _, j := range topL {
			needTop[v][j] = true
			remaining++
		}
		for _, j := range botL {
			needBot[v][j] = true
			remaining++
		}
	}
	for r := 0; r < maxRounds; r++ {
		eng.Step(async)
		for v := 0; v < n; v++ {
			st := eng.State(v).(*tmState)
			if Member(st.TopS.Down, &f.strings[v], true, n) {
				if j := st.TopS.Down.P.ID.Level; needTop[v][j] {
					delete(needTop[v], j)
					remaining--
				}
			}
			if Member(st.BotS.Down, &f.strings[v], false, n) {
				if j := st.BotS.Down.P.ID.Level; needBot[v][j] {
					delete(needBot[v], j)
					remaining--
				}
			}
		}
		if remaining == 0 {
			return r + 1
		}
	}
	t.Fatalf("coverage incomplete after %d rounds: %d missing", maxRounds, remaining)
	return -1
}

func TestTrainsDeliverAllPieces(t *testing.T) {
	for _, g := range []*graph.Graph{
		hierarchy.ExampleGraph(),
		graph.Path(33, 1),
		graph.RandomConnected(64, 160, 2),
		graph.Grid(7, 7, 3),
		graph.Caterpillar(10, 3, 4),
	} {
		f := makeFixture(t, g)
		lam := LambdaThreshold(g.N())
		rounds := coverageTime(t, f, 400*lam, false, 1)
		// Shape: delivery within O(λ) per cycle and a couple of cycles.
		if rounds > 60*lam {
			t.Errorf("n=%d: coverage took %d rounds (λ=%d)", g.N(), rounds, lam)
		}
	}
}

func TestTrainsDeliverAsync(t *testing.T) {
	f := makeFixture(t, graph.RandomConnected(48, 100, 9))
	lam := LambdaThreshold(48)
	rounds := coverageTime(t, f, 1000*lam, true, 3)
	if rounds > 150*lam {
		t.Errorf("async coverage took %d rounds (λ=%d)", rounds, lam)
	}
}

func TestTrainsNoFalseAlarms(t *testing.T) {
	// On a correct, marker-initialized instance the trains must never raise
	// a cycle-set alarm, over many cycles.
	f := makeFixture(t, graph.RandomConnected(50, 120, 11))
	eng := runtime.New(f.g, f.machine(50), 2)
	for r := 0; r < 4000; r++ {
		eng.StepSync()
		if v, bad := eng.AnyAlarm(); bad {
			t.Fatalf("false alarm at node %d round %d", v, r)
		}
	}
}

func TestTrainsSelfStabilizeFromGarbage(t *testing.T) {
	// Corrupt every node's dynamic train state arbitrarily; with correct
	// labels the trains must resume correct delivery, and alarms (which may
	// legitimately fire during recovery) must clear.
	f := makeFixture(t, graph.RandomConnected(40, 90, 13))
	n := f.g.N()
	eng := runtime.New(f.g, f.machine(n), 4)
	eng.RunSyncRounds(200)
	rng := rand.New(rand.NewSource(99))
	for v := 0; v < n; v++ {
		eng.Corrupt(v, func(s runtime.State) runtime.State {
			st := s.(*tmState)
			for _, tr := range []*State{&st.TopS, &st.BotS} {
				tr.UpNext = int32(rng.Intn(20))
				tr.Up = Car{Valid: rng.Intn(2) == 0, Pos: int32(rng.Intn(20)),
					P: hierarchy.Piece{ID: hierarchy.FragmentID{RootID: graph.NodeID(rng.Intn(50)), Level: rng.Intn(6)}, W: graph.Weight(rng.Intn(100))}}
				tr.Down = Down{Valid: rng.Intn(2) == 0, Pos: int32(rng.Intn(20)),
					P: hierarchy.Piece{ID: hierarchy.FragmentID{RootID: graph.NodeID(rng.Intn(50)), Level: rng.Intn(6)}, W: graph.Weight(rng.Intn(100))}}
				tr.LastPos = int32(rng.Intn(20))
				tr.CovMask = rng.Uint64()
				tr.Timer = int32(rng.Intn(1000))
				tr.Reset = rng.Intn(2) == 0
			}
			return st
		})
	}
	lam := LambdaThreshold(n)
	// Recovery: within O(λ) budgets the delivery works again.
	_ = coverageTime(t, f, 400*lam, false, 5)
	// And alarms clear permanently.
	settle := 0
	for r := 0; r < 4000; r++ {
		eng.StepSync()
		if _, bad := eng.AnyAlarm(); bad {
			settle = r + 1
		}
	}
	if settle > 200*lam {
		t.Fatalf("alarms persisted for %d rounds after corruption", settle)
	}
}

func TestCycleTimeScalesWithPartSize(t *testing.T) {
	// Theorem 7.1 shape: time between consecutive wraps at any node is
	// O(K + depth) = O(λ).
	f := makeFixture(t, graph.RandomConnected(96, 220, 17))
	n := f.g.N()
	eng := runtime.New(f.g, f.machine(n), 6)
	eng.RunSyncRounds(500) // warm up
	lastWrap := make([]int, n)
	worst := 0
	prevPos := make([]int32, n)
	for v := range prevPos {
		prevPos[v] = -1
	}
	for r := 0; r < 3000; r++ {
		eng.StepSync()
		for v := 0; v < n; v++ {
			st := eng.State(v).(*tmState)
			if st.TopS.Down.Valid {
				if prevPos[v] >= 0 && st.TopS.Down.Pos < prevPos[v] {
					if lastWrap[v] > 0 && r-lastWrap[v] > worst {
						worst = r - lastWrap[v]
					}
					lastWrap[v] = r
				}
				prevPos[v] = st.TopS.Down.Pos
			}
		}
	}
	lam := LambdaThreshold(n)
	if worst == 0 {
		t.Fatal("no wraps observed")
	}
	if worst > 40*lam {
		t.Errorf("worst cycle gap %d rounds exceeds O(λ)=%d shape", worst, lam)
	}
}

func TestMemberDelimiter(t *testing.T) {
	n := 64
	split := LevelSplit(n)
	var ss hierarchy.Strings
	ss.SetLevels(7)
	for j := 0; j < ss.Levels(); j++ {
		ss.SetRootsAt(j, hierarchy.RootsNo)
	}
	mk := func(level int, flag bool) Down {
		return Down{Valid: true, Pos: 0, Flag: flag,
			P: hierarchy.Piece{ID: hierarchy.FragmentID{RootID: 5, Level: level}}}
	}
	if !Member(mk(split, false), &ss, true, n) {
		t.Error("top member by level not recognized")
	}
	if Member(mk(split-1, true), &ss, true, n) {
		t.Error("bottom-level piece accepted on top train")
	}
	if !Member(mk(split-1, true), &ss, false, n) {
		t.Error("flagged bottom piece not recognized")
	}
	if Member(mk(split-1, false), &ss, false, n) {
		t.Error("unflagged bottom piece accepted")
	}
}

// Property: on random graphs, the trains deliver every needed piece within
// the O(λ)-shaped budget, with no false cycle-set alarms along the way.
func TestTrainDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 8 + int(uint64(seed)%56)
		m := n - 1 + int(uint64(seed)%uint64(n))
		g := graph.RandomConnected(n, m, seed)
		res, err := syncmst.Simulate(g)
		if err != nil {
			return false
		}
		p, err := partition.Compute(res.Hierarchy)
		if err != nil {
			return false
		}
		machine := &testMachine{
			Tree:    res.Tree,
			Labels:  Mark(p),
			Strings: hierarchy.MarkStrings(res.Hierarchy),
			N:       n,
		}
		eng := runtime.New(g, machine, seed)
		lam := LambdaThreshold(n)
		need := 0
		needTop := make([]map[int]bool, n)
		needBot := make([]map[int]bool, n)
		for v := 0; v < n; v++ {
			topL, botL := AppendNeededLevels(nil, nil, &machine.Strings[v], n)
			needTop[v], needBot[v] = map[int]bool{}, map[int]bool{}
			for _, j := range topL {
				needTop[v][j] = true
				need++
			}
			for _, j := range botL {
				needBot[v][j] = true
				need++
			}
		}
		for r := 0; r < 120*lam && need > 0; r++ {
			eng.StepSync()
			if _, bad := eng.AnyAlarm(); bad {
				return false
			}
			for v := 0; v < n; v++ {
				st := eng.State(v).(*tmState)
				if Member(st.TopS.Down, &machine.Strings[v], true, n) && needTop[v][st.TopS.Down.P.ID.Level] {
					delete(needTop[v], st.TopS.Down.P.ID.Level)
					need--
				}
				if Member(st.BotS.Down, &machine.Strings[v], false, n) && needBot[v][st.BotS.Down.P.ID.Level] {
					delete(needBot[v], st.BotS.Down.P.ID.Level)
					need--
				}
			}
		}
		return need == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDrainedIsRestFixedPoint: on marked labels the drained state is at
// rest, and with RestOK and every tree neighbour drained a step leaves it
// unchanged — except the part root's watchdog, which ticks — on both
// trains of every node. Without RestOK the part root launches a reset at
// once.
func TestDrainedIsRestFixedPoint(t *testing.T) {
	for _, g := range []*graph.Graph{
		hierarchy.ExampleGraph(),
		graph.Path(40, 1),
		graph.RandomConnected(60, 150, 2),
		graph.Star(25, 4),
	} {
		f := makeFixture(t, g)
		for v := 0; v < g.N(); v++ {
			for _, top := range []bool{true, false} {
				l := pick(&f.labels[v], top)
				d := Drained(l)
				if !AtRest(&d, l) {
					t.Fatalf("n=%d node %d top=%v: drained state %+v not at rest", g.N(), v, top, d)
				}
				ctx := &Ctx{OwnID: g.ID(v), Lab: l, Strings: &f.strings[v], N: g.N(), Top: top, RestOK: true}
				if p := f.tree.Parent[v]; p >= 0 {
					pl := pick(&f.labels[p], top)
					pd := Drained(pl)
					ctx.Parent = &PeerTrain{S: &pd, L: pl}
				}
				for _, c := range f.tree.Children(v) {
					cl := pick(&f.labels[c], top)
					cd := Drained(cl)
					ctx.Children = append(ctx.Children, PeerTrain{S: &cd, L: cl})
				}
				want := d
				root := l.K != 0 && l.PartRootID == g.ID(v)
				if root {
					want.Timer = int32(IdleTimerTick(int(d.Timer), l.CycleBudget()))
				}
				var got State
				StepInto(&got, &d, ctx)
				if got != want {
					t.Fatalf("n=%d node %d top=%v: step from drained\n got %+v\nwant %+v", g.N(), v, top, got, want)
				}
				ctx.RestOK = false
				StepInto(&got, &d, ctx)
				if root && !got.Reset {
					t.Fatalf("n=%d node %d top=%v: part root without RestOK did not reset", g.N(), v, top)
				}
			}
		}
	}
}
