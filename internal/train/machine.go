package train

import (
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
)

// TestMachine runs the two trains of every node in isolation (no sampler,
// no string verification) over a marker-labeled tree. The full verifier of
// internal/verify embeds the same StepInto logic; this machine exists so the
// train's delivery, timing and self-stabilization properties (Theorem 7.1,
// experiment E11) can be tested on their own.
type TestMachine struct {
	Tree    *graph.Tree
	Labels  []NodeLabels
	Strings []hierarchy.Strings
	N       int
}

// TMState is the dynamic state of one node under TestMachine.
type TMState struct {
	TopS State
	BotS State
}

// BitSize measures both trains.
func (s *TMState) BitSize() int { return s.TopS.BitSize() + s.BotS.BitSize() }

// Clone returns a deep copy.
func (s *TMState) Clone() runtime.State { c := *s; return &c }

// Alarm reports a cycle-set violation on either train.
func (s *TMState) Alarm() bool { return s.TopS.Alarm || s.BotS.Alarm }

var _ runtime.Machine = (*TestMachine)(nil)
var _ runtime.Alarmer = (*TMState)(nil)

// Init starts with quiescent trains (the marker initializes only labels;
// dynamic train state always self-starts).
func (m *TestMachine) Init(v *runtime.View) runtime.State { return &TMState{} }

// Step advances both trains of one node into a fresh state (scratch is
// not recycled).
func (m *TestMachine) Step(v *runtime.View, _ runtime.State) runtime.State {
	old := v.Self().(*TMState)
	node := v.Node()
	next := &TMState{}
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
			ps := v.Neighbour(port).(*TMState)
			ctx.Parent = &PeerTrain{S: pickState(ps, top), L: pickLabels(&m.Labels[p], top)}
		}
		for _, c := range m.Tree.Children(node) {
			port := m.Tree.G.PortTo(node, c)
			cs := v.Neighbour(port).(*TMState)
			ctx.Children = append(ctx.Children, PeerTrain{
				S: pickState(cs, top),
				L: pickLabels(&m.Labels[c], top),
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

func pickState(s *TMState, top bool) *State {
	if top {
		return &s.TopS
	}
	return &s.BotS
}

func pickLabels(l *NodeLabels, top bool) *Labels {
	if top {
		return &l.Top
	}
	return &l.Bottom
}

// AppendNeededLevels appends the level sets JTop(v) and JBottom(v) a node
// must see on each train, derived from its strings and the delimiter, to
// caller-provided slices (pass x[:0] to reuse capacity).
func AppendNeededLevels(topDst, bottomDst []int, s *hierarchy.Strings, n int) (topLevels, bottomLevels []int) {
	split := LevelSplit(n)
	for j := 0; j < s.Levels(); j++ {
		if s.Roots[j] == hierarchy.RootsNone {
			continue
		}
		if j >= split {
			topDst = append(topDst, j)
		} else {
			bottomDst = append(bottomDst, j)
		}
	}
	return topDst, bottomDst
}
