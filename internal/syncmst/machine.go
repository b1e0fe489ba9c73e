package syncmst

import (
	"math"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
)

// This file implements SYNC_MST as a distributed register program with the
// exact timing of §4. Phase i occupies rounds [11·2^i, 22·2^i):
//
//	11·2^i          Count_Size wave starts (TTL 2^{i+1}−1), ≤ 2^{i+2}−1 rounds
//	15·2^i          Find_Min_Out_Edge wave starts in active fragments
//	17·2^i          every waved node inspects all neighbours simultaneously
//	19·2^i          change-root token walks from the root to the endpoint w
//	22·2^i − 1      handshake: mutual proposals over the same edge elect the
//	                larger identity; everyone else hooks
//
// A node's externally visible state is O(log n) bits (measured by BitSize).

// NoOut is the "no outgoing edge" sentinel in find echoes.
const NoOut = hierarchy.NoOutWeight

// PhaseOf returns the phase active at round r (-1 before round 11).
func PhaseOf(r int) int {
	p := -1
	for base := 11; base <= r; base *= 2 {
		p++
	}
	return p
}

// State is the register content of one SYNC_MST node.
type State struct {
	MyID graph.NodeID // the node's identity, published for neighbours

	// Persistent fragment structure.
	ParentPort int          // port to parent, -1 if fragment root
	ParentID   graph.NodeID // identity of parent, 0 if root
	RootID     graph.NodeID // estimate of the fragment root's identity
	Level      int
	Finished   bool

	// Per-phase scratch (reset at each phase boundary).
	Phase       int
	CntWave     bool
	CntTTL      int
	CntEcho     int // -1 until echoed; else subtree count (capped at 2^{p+1})
	Active      bool
	FindWave    bool
	Examined    bool
	OwnBestW    graph.Weight
	OwnBestPort int
	FindEchoed  bool
	BestW       graph.Weight
	BestPort    int
	BestChildID graph.NodeID
	CRTargetID  graph.NodeID
	CRDone      bool
	ProposePort int
}

// Clone returns a deep copy of the state.
func (s *State) Clone() runtime.State { c := *s; return &c }

// RemapPorts implements runtime.PortRemapper: every port-valued field —
// the parent pointer, the local and subtree MWOE candidates, the merge
// proposal — moves with the edge it names when a topology mutation compacts
// this node's ports; a field naming the removed edge collapses to the -1
// sentinel (no parent / no candidate), which the protocol already treats as
// an ordinary transient condition.
func (s *State) RemapPorts(oldToNew []int) {
	for _, p := range [...]*int{&s.ParentPort, &s.OwnBestPort, &s.BestPort, &s.ProposePort} {
		if *p >= 0 && *p < len(oldToNew) {
			*p = oldToNew[*p]
		}
	}
}

// BitSize counts the encoded width of every field; all fields are
// identities, ports, weights, levels or flags — O(log n) in total. Straight
// sum, same reasoning as train.State.BitSize: the engine re-measures every
// node every round.
func (s *State) BitSize() int {
	return bits.Flag(s.Finished) + bits.Flag(s.CntWave) + bits.Flag(s.Active) +
		bits.Flag(s.FindWave) + bits.Flag(s.Examined) + bits.Flag(s.FindEchoed) +
		bits.Flag(s.CRDone) +
		bits.ForInt(int64(s.MyID)) +
		bits.ForInt(int64(s.ParentPort)) +
		bits.ForInt(int64(s.ParentID)) +
		bits.ForInt(int64(s.RootID)) +
		bits.ForInt(int64(s.Level)) +
		bits.ForInt(int64(s.Phase)) +
		bits.ForInt(int64(s.CntTTL)) +
		bits.ForInt(int64(s.CntEcho)) +
		weightBits(s.OwnBestW) +
		bits.ForInt(int64(s.OwnBestPort)) +
		weightBits(s.BestW) +
		bits.ForInt(int64(s.BestPort)) +
		bits.ForInt(int64(s.BestChildID)) +
		bits.ForInt(int64(s.CRTargetID)) +
		bits.ForInt(int64(s.ProposePort))
}

// weightBits treats the NoOut sentinel as a single flag bit plus nothing.
func weightBits(w graph.Weight) int {
	if w == NoOut {
		return 1
	}
	return bits.ForInt(int64(w))
}

// Done implements runtime.State: the engine's incremental
// instrumentation makes Engine.AllDone an O(1) read.
func (s *State) Done() bool { return s.Finished }

// Alarm implements runtime.State: SYNC_MST is a construction, not a
// verifier, and never rejects.
func (s *State) Alarm() bool { return false }

// NodeView is the window a SYNC_MST step needs: the embedding machine (the
// standalone runner below, or the self-stabilizing transformer of
// internal/selfstab) adapts its own state layout to it. Round is the
// algorithm's synchronous clock — epoch-relative under the transformer.
type NodeView interface {
	ID() graph.NodeID
	Degree() int
	Weight(port int) graph.Weight
	PeerPort(q int) int
	Round() int
	Self() *State
	// Neighbour returns the neighbour's SYNC_MST state, nil if that node is
	// not currently running the algorithm.
	Neighbour(port int) *State
}

// Machine is the SYNC_MST register program.
type Machine struct{}

var _ runtime.Machine = Machine{}

// NewState produces the clean simultaneous-wake-up state: the node is the
// root of its own singleton fragment at level 0.
func NewState(id graph.NodeID) *State {
	return &State{
		MyID:        id,
		ParentPort:  -1,
		RootID:      id,
		Phase:       -1,
		CntEcho:     -1,
		OwnBestPort: -1,
		BestPort:    -1,
		ProposePort: -1,
	}
}

// Init implements runtime.Machine for standalone runs.
func (Machine) Init(v *runtime.View) runtime.State { return NewState(v.ID()) }

// runtimeView adapts runtime.View to NodeView.
//
//ssmst:allow determinism -- stack-allocated per step call; never outlives the step
type runtimeView struct{ v *runtime.View }

func (a runtimeView) ID() graph.NodeID             { return a.v.ID() }
func (a runtimeView) Degree() int                  { return a.v.Degree() }
func (a runtimeView) Weight(port int) graph.Weight { return a.v.Weight(port) }
func (a runtimeView) PeerPort(q int) int           { return a.v.PeerPort(q) }
func (a runtimeView) Round() int                   { return a.v.Round() }
func (a runtimeView) Self() *State                 { return a.v.Self().(*State) }
func (a runtimeView) Neighbour(port int) *State {
	if st, ok := a.v.Neighbour(port).(*State); ok {
		return st
	}
	return nil
}

// Step implements runtime.Machine for standalone runs: State is a flat
// value (no reference fields), so the next state is computed straight into
// the recycled scratch slot and the steady-state round loop allocates
// nothing. A nil scratch gets a fresh State.
//
//ssmst:hotpath
func (Machine) Step(v *runtime.View, scratch runtime.State) runtime.State {
	dst, ok := scratch.(*State)
	if !ok || dst == nil {
		dst = new(State) //ssmst:allow hotpathalloc -- cold: nil scratch (the node's first step) or a foreign state after SetState
	}
	//ssmst:allow hotpathalloc -- the adapter does not escape StepCoreInto; the runtime alloc gate pins this at 0 allocs
	return StepCoreInto(dst, runtimeView{v})
}

// StepCoreInto advances one node by one synchronous round, writing into
// recycled memory: dst receives a value copy of v.Self() and is stepped in
// place. dst must not alias v.Self() or any neighbour state.
//
//ssmst:hotpath
func StepCoreInto(dst *State, v NodeView) *State {
	s := dst
	*s = *v.Self()
	if s.Finished {
		return s
	}
	r := v.Round()
	p := PhaseOf(r)
	if p < 0 {
		return s
	}
	if s.Phase != p {
		s.resetScratch(p)
	}

	limit := 1<<(p+1) - 1 // active iff count ≤ limit; also the count TTL

	// ---- Done wave: adopt termination from the parent. ----
	if s.ParentPort >= 0 {
		if ps := v.Neighbour(s.ParentPort); ps != nil && ps.Finished {
			s.Finished = true
			return s
		}
	}

	// ---- Count_Size ----
	if s.ParentPort < 0 && !s.CntWave {
		// Root starts the phase: set level to p and begin counting.
		s.Level = p
		s.CntWave = true
		s.CntTTL = limit
		s.RootID = s.MyID
	}
	if s.ParentPort >= 0 && !s.CntWave {
		if ps := v.Neighbour(s.ParentPort); ps != nil &&
			ps.Phase == p && ps.CntWave && ps.CntTTL > 0 {
			s.CntWave = true
			s.CntTTL = ps.CntTTL - 1
			s.RootID = ps.RootID
			s.Level = p
		}
	}
	if s.CntWave && s.CntEcho < 0 {
		if s.CntTTL == 0 {
			s.CntEcho = 1
		} else if sum, ok := sumChildEchoes(v, s, p); ok {
			count := 1 + sum
			if count > limit+1 {
				count = limit + 1 // cap: keeps the field O(log n) bits
			}
			s.CntEcho = count
		}
	}
	if s.ParentPort < 0 && s.CntEcho >= 0 && !s.Active {
		if s.CntEcho <= limit {
			s.Active = true
		} else {
			s.Level = p + 1
		}
	}

	// ---- Find_Min_Out_Edge ----
	if r >= 15*(1<<uint(p)) {
		if s.ParentPort < 0 && s.Active && !s.FindWave {
			s.FindWave = true
		}
		if s.ParentPort >= 0 && !s.FindWave {
			if ps := v.Neighbour(s.ParentPort); ps != nil &&
				ps.Phase == p && ps.FindWave {
				s.FindWave = true
			}
		}
	}
	if r >= 17*(1<<uint(p)) && s.FindWave && !s.Examined {
		// All waved nodes inspect all their neighbours simultaneously: an
		// edge is outgoing iff the root estimates differ (§4: correct at
		// this exact round even against stale estimates).
		s.Examined = true
		s.OwnBestW, s.OwnBestPort = NoOut, -1
		for q := 0; q < v.Degree(); q++ {
			us := v.Neighbour(q)
			if us == nil {
				continue
			}
			if us.RootID != s.RootID {
				if w := v.Weight(q); w < s.OwnBestW {
					s.OwnBestW, s.OwnBestPort = w, q
				}
			}
		}
	}
	if s.Examined && !s.FindEchoed {
		if bw, bid, ok := foldChildFinds(v, s, p); ok {
			s.BestW, s.BestPort, s.BestChildID = s.OwnBestW, s.OwnBestPort, 0
			if bw < s.BestW {
				s.BestW, s.BestPort, s.BestChildID = bw, -1, bid
			}
			s.FindEchoed = true
		}
	}

	// ---- Termination: the active root saw no outgoing edge. ----
	if s.ParentPort < 0 && s.Active && s.FindEchoed && s.BestW == NoOut {
		s.Finished = true
		return s
	}

	// ---- Change-root: walk the token from the root to endpoint w. ----
	if r >= 19*(1<<uint(p)) {
		if s.ParentPort < 0 && s.Active && s.FindEchoed && !s.CRDone && s.BestW != NoOut {
			s.takeToken(v)
		}
		if s.ParentPort >= 0 && s.FindEchoed && !s.CRDone {
			// Token targeted at me by a neighbour (necessarily my old
			// parent on the change-root path).
			for q := 0; q < v.Degree(); q++ {
				us := v.Neighbour(q)
				if us != nil && us.Phase == p && us.CRTargetID == s.MyID {
					s.takeToken(v)
					break
				}
			}
		}
	}

	// ---- Handshake and hooking at the last round of the phase. ----
	if r == 22*(1<<uint(p))-1 && s.ProposePort >= 0 {
		if us := v.Neighbour(s.ProposePort); us != nil {
			mutual := us.Phase == p && us.ProposePort >= 0 &&
				peerPortMatches(v, s.ProposePort, us.ProposePort)
			if !(mutual && us.MyID < s.MyID) {
				// Every case except "I win the mutual handshake": hook.
				s.ParentPort = s.ProposePort
				s.ParentID = us.MyID
			}
		}
	}
	return s
}

// NextTrigger returns the first round t ≥ r at which StepCoreInto may
// change s although its own state and its neighbours' are unchanged: the
// rounds where the step's dependence on the round changes — a phase starts
// (11·2^p), the find wave may start (15·2^p), waved nodes examine their
// edges (17·2^p), the change-root token may move (19·2^p), and the
// handshake round (22·2^p − 1). Between two such rounds the step is one
// fixed function of the states it reads, so a state it leaves unchanged
// stays unchanged. A finished state never changes: NextTrigger returns
// math.MaxInt for it.
func NextTrigger(s *State, r int) int {
	if s.Finished {
		return math.MaxInt
	}
	p := PhaseOf(r)
	if p < 0 {
		return 11
	}
	b := 1 << uint(p)
	for _, t := range [...]int{11 * b, 15 * b, 17 * b, 19 * b, 22*b - 1} {
		if t >= r {
			return t
		}
	}
	return 22 * b // the next phase starts
}

// takeToken performs one change-root step at the token holder: reorient the
// parent pointer toward the best child (and pass the token), or, at the
// endpoint w, become the fragment root and propose over the outgoing edge.
func (s *State) takeToken(v NodeView) {
	s.CRDone = true
	if s.BestChildID != 0 {
		if q := portToID(v, s.BestChildID); q >= 0 {
			s.ParentPort = q
			s.ParentID = s.BestChildID
			s.CRTargetID = s.BestChildID
		}
		return
	}
	// This node is w, the inside endpoint of the candidate edge.
	s.ParentPort = -1
	s.ParentID = 0
	s.ProposePort = s.BestPort
}

// sumChildEchoes adds the count echoes of all children; ok is false while
// any child has not echoed yet.
func sumChildEchoes(v NodeView, s *State, phase int) (int, bool) {
	sum := 0
	for q := 0; q < v.Degree(); q++ {
		us := v.Neighbour(q)
		if us == nil || us.ParentID != s.MyID {
			continue
		}
		if us.Phase != phase || us.CntEcho < 0 {
			return 0, false
		}
		sum += us.CntEcho
	}
	return sum, true
}

// foldChildFinds returns the minimum candidate among the children's find
// echoes; ok is false while any child has not echoed.
func foldChildFinds(v NodeView, s *State, phase int) (graph.Weight, graph.NodeID, bool) {
	best, bestID := NoOut, graph.NodeID(0)
	for q := 0; q < v.Degree(); q++ {
		us := v.Neighbour(q)
		if us == nil || us.ParentID != s.MyID {
			continue
		}
		if us.Phase != phase || !us.FindEchoed {
			return 0, 0, false
		}
		if us.BestW < best {
			best, bestID = us.BestW, us.MyID
		}
	}
	return best, bestID, true
}

// portToID finds the local port leading to the neighbour with the given
// identity, or -1.
func portToID(v NodeView, id graph.NodeID) int {
	for q := 0; q < v.Degree(); q++ {
		if us := v.Neighbour(q); us != nil && us.MyID == id {
			return q
		}
	}
	return -1
}

// peerPortMatches reports whether the neighbour at my port q proposed over
// the same edge (its propose port is the far end of my port q).
func peerPortMatches(v NodeView, myPort, theirProposePort int) bool {
	return v.PeerPort(myPort) == theirProposePort
}

func (s *State) resetScratch(p int) {
	s.Phase = p
	s.CntWave = false
	s.CntTTL = 0
	s.CntEcho = -1
	s.Active = false
	s.FindWave = false
	s.Examined = false
	s.OwnBestW = 0
	s.OwnBestPort = -1
	s.FindEchoed = false
	s.BestW = 0
	s.BestPort = -1
	s.BestChildID = 0
	s.CRTargetID = 0
	s.CRDone = false
	s.ProposePort = -1
}

// RunRegister executes the register program to termination and returns the
// resulting tree plus the engine (for instrumentation). maxRounds guards
// against non-termination in tests.
func RunRegister(g *graph.Graph, seed int64, maxRounds int) (*graph.Tree, *runtime.Engine, error) {
	eng := runtime.New(g, Machine{}, seed)
	eng.Parallel = true
	_, ok := eng.RunUntil(false, maxRounds, func(e *runtime.Engine) bool { return e.AllDone() })
	if !ok {
		return nil, eng, errCantFinish(maxRounds)
	}
	root := -1
	parent := make([]int, g.N())
	for i := 0; i < g.N(); i++ {
		st := eng.State(i).(*State)
		if st.ParentPort < 0 {
			if root >= 0 {
				return nil, eng, errTwoRoots(root, i)
			}
			root = i
			parent[i] = -1
			continue
		}
		parent[i] = g.Half(i, st.ParentPort).Peer
	}
	if root < 0 {
		return nil, eng, errNoRoot()
	}
	t, err := graph.NewTree(g, root, parent)
	return t, eng, err
}

type runError string

func (e runError) Error() string { return string(e) }

func errCantFinish(max int) error { return runError("syncmst: register run hit round limit") }
func errTwoRoots(a, b int) error  { return runError("syncmst: two roots after termination") }
func errNoRoot() error            { return runError("syncmst: no root after termination") }
