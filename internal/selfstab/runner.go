package selfstab

import (
	"math/rand"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/oracle"
	"ssmst/internal/runtime"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// Runner drives the self-stabilizing MST over an engine.
type Runner struct {
	M   *Machine
	Eng *runtime.Engine
}

// NewRunner builds the transformer engine; bound is the polynomial upper
// bound N on n assumed by the reset substrate (pass g.N() for the exact
// bound). Rounds recycle each node's two-rounds-old state and allocate
// nothing within a phase. Under the synchronous daemon the engine steps a
// worklist (runtime.Engine.Worklist): nodes pulsing in lockstep through
// resync, build and label are skipped until a neighbour changes or their
// next timed pulse arrives (see the package doc).
func NewRunner(g *graph.Graph, bound int, mode verify.Mode, seed int64) *Runner {
	m := NewMachine(g, bound, mode)
	eng := runtime.New(g, m, seed)
	eng.Parallel = true
	eng.Worklist = mode == verify.Sync
	m.Snapshot = func() []*SState {
		out := make([]*SState, g.N())
		for i := 0; i < g.N(); i++ {
			if st, ok := eng.State(i).(*SState); ok {
				out[i] = st
			}
		}
		return out
	}
	return &Runner{M: m, Eng: eng}
}

// NewFullRecheckRunner is NewRunner with the embedded verifier's static-
// verdict memoization disabled: the check phase re-checks every label layer
// every round. The reference configuration incremental transformer runs are
// compared against (detection rounds are bit-identical).
func NewFullRecheckRunner(g *graph.Graph, bound int, mode verify.Mode, seed int64) *Runner {
	r := NewRunner(g, bound, mode, seed)
	r.M.verifier.FullRecheck = true
	return r
}

// Step advances one time unit under the daemon of the machine's Mode.
func (r *Runner) Step() { r.Eng.Step(r.M.Mode == verify.Async) }

// Stabilized reports whether every node is checking the same epoch with no
// alarm and the output forms a spanning tree.
func (r *Runner) Stabilized() bool {
	// SState.Done is exactly "checking, no alarm"; the engine tracks it
	// incrementally, so the per-round polling in RunUntilStable is O(1)
	// until the network actually quiesces.
	if !r.Eng.AllDone() {
		return false
	}
	g := r.Eng.G()
	var epoch int64 = -1
	for v := 0; v < g.N(); v++ {
		st, ok := r.Eng.State(v).(*SState)
		if !ok || st.Phase != PhaseCheck || st.Check == nil || st.Check.AlarmFlag {
			return false
		}
		if epoch < 0 {
			epoch = st.Epoch
		} else if st.Epoch != epoch {
			return false
		}
	}
	_, ok := r.OutputEdges()
	return ok
}

// OutputEdges returns the edge set of the currently output structure, and
// whether it is a spanning tree.
func (r *Runner) OutputEdges() ([]int, bool) {
	edges, ok := r.outputEdges()
	return edges, ok && graph.IsSpanningTree(r.Eng.G(), edges)
}

// outputEdges collects the edge each node's check-phase parent port names.
// ok is false when some node is not in the check phase or names a port it
// does not have; whether the edges span is left to the caller.
func (r *Runner) outputEdges() ([]int, bool) {
	g := r.Eng.G()
	edges := make([]int, 0, max(g.N()-1, 0))
	for v := 0; v < g.N(); v++ {
		st, ok := r.Eng.State(v).(*SState)
		if !ok || st.Check == nil {
			return nil, false
		}
		if pp := int(st.Check.ParentPort); pp >= 0 {
			if pp >= g.Degree(v) {
				return nil, false
			}
			edges = append(edges, g.Half(v, pp).Edge)
		}
	}
	return edges, true
}

// OutputIsMST reports whether the current output is the minimum spanning
// tree of the graph: the oracle.TLightness verdict.
func (r *Runner) OutputIsMST() bool {
	g := r.Eng.G()
	edges, ok := r.OutputEdges()
	return ok && oracle.TLightness(g, edges, graph.ByWeight(g)).IsMST
}

// RunUntilStable steps until Stabilized and the output is the MST, or the
// bound is reached; returns the rounds taken.
func (r *Runner) RunUntilStable(maxRounds int) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		r.Step()
		if r.Stabilized() && r.OutputIsMST() {
			return i + 1, true
		}
	}
	return maxRounds, false
}

// RunUntilDetect steps until some node leaves the check phase
// (Engine.AllDone turning false) — the transformer's detection: the step
// that sees an alarm starts the new epoch at once, so AnyAlarm never
// observes it. It returns the rounds taken and whether a node left within
// maxRounds.
func (r *Runner) RunUntilDetect(maxRounds int) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		r.Step()
		if !r.Eng.AllDone() {
			return i + 1, true
		}
	}
	return maxRounds, false
}

// StabilizationBudget is the O(N) bound within which a clean run (or a run
// from arbitrary states with one detection round-trip) must stabilize.
func (r *Runner) StabilizationBudget() int {
	perEpoch := r.M.resyncDur() + r.M.buildDur() + r.M.labelDur()
	detect := verify.DetectionBudget(r.Eng.G().N())
	return 3*perEpoch + 2*detect
}

// SeedStable installs the stabilized configuration for a marked instance:
// every node checking epoch 0 with l's labels and quiescent dynamic state —
// exactly what a clean run converges to. Large-n measurements of the check
// phase (detection latency, engine throughput) use it to skip the O(N)
// build rounds it would take to get there; l must label r's graph.
func (r *Runner) SeedStable(l *verify.Labeled) { SeedChecked(r.Eng, l) }

// SeedChecked is SeedStable for a bare engine running the transformer. The
// installed verifier states share l's immutable label blocks.
func SeedChecked(eng *runtime.Engine, l *verify.Labeled) {
	g := eng.G()
	for v := 0; v < g.N(); v++ {
		eng.SetState(v, &SState{MyID: g.ID(v), Phase: PhaseCheck, Check: l.NodeState(v)})
	}
}

// Scramble installs adversarial arbitrary states at every node.
func (r *Runner) Scramble(rng *rand.Rand) {
	g := r.Eng.G()
	for v := 0; v < g.N(); v++ {
		v := v
		st := &SState{
			MyID:  g.ID(v),
			Epoch: int64(rng.Intn(3)),
			Phase: Phase(rng.Intn(4)),
			Pulse: rng.Intn(4 * r.M.N),
		}
		switch st.Phase {
		case PhaseBuild:
			b := syncmst.NewState(g.ID(v))
			b.ParentPort = rng.Intn(g.Degree(v)+1) - 1
			b.Level = rng.Intn(6)
			b.RootID = graph.NodeID(rng.Intn(4 * g.N()))
			b.Phase = rng.Intn(6)
			st.Build = b
		case PhaseCheck:
			// Garbage verifier state: empty labels at some nodes, shuffled
			// parent ports at others.
			c := poisonState(g.ID(v))
			c.ParentPort = int32(rng.Intn(g.Degree(v)+1) - 1)
			st.Check = c
		}
		r.Eng.SetState(v, st)
	}
}

// InjectCheckFault applies a mutation to node v's installed verifier state
// (check phase only); f reports whether it changed anything. Detection
// inside the transformer is a node leaving the check phase; see
// RunUntilDetect.
func (r *Runner) InjectCheckFault(v int, f func(*verify.VState) bool) bool {
	st, ok := r.Eng.State(v).(*SState)
	if !ok || st.Phase != PhaseCheck || st.Check == nil {
		return false
	}
	c := st.Clone().(*SState)
	if !f(c.Check) {
		return false
	}
	r.Eng.SetState(v, c)
	return true
}

// ApplyChurn plans a topology-mutation fault of the given kind against the
// currently output tree and applies it through the engine
// (runtime.Engine.MutateTopology): CSR re-sync, port remapping in every
// phase's sub-state, memo invalidation and dirty-epoch bumps at the touched
// neighbourhoods. An MST-preserving kind leaves the stabilized network
// checking quietly; an MST-breaking kind is detected by the check phase,
// which starts a new epoch and rebuilds the MST of the mutated graph.
//
// It reports the planned event and whether one was applied. Planning roots
// the output edges (graph.TreeFromEdges) and requires a coherent output to
// classify edges against: every node in the quiet check phase
// (Engine.AllDone) and the output forming a spanning tree, which
// TreeFromEdges itself decides by failing on any other edge set —
// otherwise ok is false and nothing is mutated (planning against a
// half-built parent forest could misclassify a bridge as a removable
// non-tree edge). Mid-rebuild mutations remain available through
// Eng.MutateTopology directly, as arbitrary adversarial events.
func (r *Runner) ApplyChurn(kind verify.ChurnKind, rng *rand.Rand) (verify.ChurnEvent, bool) {
	ev := verify.ChurnEvent{Kind: kind, U: -1, V: -1}
	if !r.Eng.AllDone() {
		return ev, false
	}
	g := r.Eng.G()
	edges, ok := r.outputEdges()
	if !ok {
		return ev, false
	}
	t, err := graph.TreeFromEdges(g, edges, 0)
	if err != nil {
		return ev, false
	}
	planned, apply, ok := verify.PlanChurn(g, t, kind, rng)
	if !ok {
		return planned, false
	}
	return planned, r.Eng.MutateTopology(apply) == nil
}

// ApplyRegionalOutage corrupts the installed verifier state of every
// check-phase node in the BFS ball of the given radius around a random
// center — the transformer-side correlated regional-failure scenario. Each
// victim receives a static-layer fault from the verify menu (no-op kinds
// are skipped in favour of the next). The check phase must detect the
// corruption and re-stabilize by rebuilding the MST. Deterministic in
// (engine state, seed); returns the center and the corrupted nodes.
func (r *Runner) ApplyRegionalOutage(radius int, seed int64) (center int, victims []int) {
	g := r.Eng.G()
	return verify.RegionalOutage(g, radius, seed, func(v int, kind verify.FaultKind, rng *rand.Rand) bool {
		deg := g.Degree(v)
		return r.InjectCheckFault(v, func(c *verify.VState) bool {
			return verify.ApplyFault(c, kind, rng, deg)
		})
	})
}

// InjectLabelFault corrupts a node's verifier state post-stabilization.
func (r *Runner) InjectLabelFault(v int, rng *rand.Rand) bool {
	return r.InjectCheckFault(v, func(c *verify.VState) bool {
		// Flip a Roots entry — a §5 structural fault.
		k := c.L.HS.Levels()
		if k == 0 {
			return false
		}
		j := rng.Intn(k)
		if c.L.HS.RootsAt(j) == hierarchy.RootsYes {
			c.L.HS.SetRootsAt(j, hierarchy.RootsNone)
		} else {
			c.L.HS.SetRootsAt(j, hierarchy.RootsYes)
		}
		return true
	})
}
