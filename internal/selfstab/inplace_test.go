package selfstab

import (
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// freshStep hides the engine's recycled scratch state from a machine: every
// step gets nil scratch, so every next state is built fresh — the reference
// the recycled path must match.
type freshStep struct{ runtime.Machine }

func (f freshStep) Step(v *runtime.View, _ runtime.State) runtime.State {
	return f.Machine.Step(v, nil)
}

// newEngine builds a transformer engine with the oracle snapshot wired, on
// either the recycled-scratch path or fresh nil-scratch steps.
func newEngine(g *graph.Graph, mode verify.Mode, seed int64, inplace bool) *runtime.Engine {
	m := NewMachine(g, g.N(), mode)
	var mm runtime.Machine = freshStep{m}
	if inplace {
		mm = m
	}
	eng := runtime.New(g, mm, seed)
	m.Snapshot = func() []*SState {
		out := make([]*SState, g.N())
		for i := 0; i < g.N(); i++ {
			if st, ok := eng.State(i).(*SState); ok {
				out[i] = st
			}
		}
		return out
	}
	return eng
}

func compareEngines(t *testing.T, r int, fresh, inplace, par *runtime.Engine) {
	t.Helper()
	n := fresh.G().N()
	for v := 0; v < n; v++ {
		// The states themselves, memos included: the transformer's coast
		// memo and the embedded verifier's caches must be what a fresh step
		// computes.
		want := fresh.State(v)
		if got := inplace.State(v); !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d node %d: in-place state diverged from Step\nstep:     %+v\ninplace:  %+v",
				r, v, want, got)
		}
		if par != nil && !reflect.DeepEqual(want, par.State(v)) {
			t.Fatalf("round %d node %d: parallel in-place state diverged from Step", r, v)
		}
	}
}

// TestInPlaceMatchesClone asserts the transformer's recycled-scratch path
// is bit-identical to fresh nil-scratch steps after every round or time
// unit, including across every phase transition. The synchronous arm runs
// from a clean start through a full epoch — resync, build, label, and the
// check phase — serial and parallel-forced. The asynchronous arm, with
// Jitter, starts in the check phase (SeedChecked), runs quiet, takes the
// verifier's multi-layer fault at one node, detects it and rebuilds until
// the network is stable again. CI runs it under -race.
func TestInPlaceMatchesClone(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	t.Run("sync", func(t *testing.T) {
		fresh := newEngine(g, verify.Sync, 2, false)
		inplace := newEngine(g, verify.Sync, 2, true)
		par := newEngine(g, verify.Sync, 2, true)
		par.Parallel = true
		par.Workers = runtime.PoolWorkers() // at any n, even on a single-core host

		m := NewMachine(g, g.N(), verify.Sync)
		rounds := m.resyncDur() + m.buildDur() + m.labelDur() + 200
		for r := 0; r < rounds; r++ {
			fresh.StepSync()
			inplace.StepSync()
			par.StepSync()
			compareEngines(t, r, fresh, inplace, par)
		}
		// Sanity: the run must actually have reached the check phase, or
		// the comparison never exercised the verifier-in-place composition.
		for v := 0; v < g.N(); v++ {
			if st := inplace.State(v).(*SState); st.Phase != PhaseCheck {
				t.Fatalf("node %d still in phase %v after %d rounds", v, st.Phase, rounds)
			}
		}
	})
	t.Run("async", func(t *testing.T) {
		l, err := verify.Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newEngine(g, verify.Async, 2, false)
		inplace := newEngine(g, verify.Async, 2, true)
		engines := []*runtime.Engine{fresh, inplace}
		for _, e := range engines {
			e.Jitter = 0.3
			SeedChecked(e, l)
		}
		unit := 0
		step := func() {
			for _, e := range engines {
				e.StepAsync()
			}
			compareEngines(t, unit, fresh, inplace, nil)
			unit++
		}
		for unit < 40 {
			step()
		}
		if !fresh.AllDone() {
			t.Fatal("the seeded check phase is not quiet")
		}
		victim := rand.New(rand.NewSource(9)).Intn(g.N())
		for _, e := range engines {
			e.Corrupt(victim, func(s runtime.State) runtime.State {
				vs := s.(*SState).Check
				vs.L.SP.Dist += 3
				if vs.L.HS.Levels() > 0 {
					vs.L.HS.SetRootsAt(0, hierarchy.RootsNone) // violates RS3
				}
				return s
			})
		}
		// Detection is a node leaving the check phase (RunUntilDetect); the
		// run then goes on through a new epoch until every node checks
		// again.
		m := NewMachine(g, g.N(), verify.Async)
		budget := unit + 3*(m.resyncDur()+m.buildDur()+m.labelDur())
		detected := false
		for unit < budget {
			step()
			if !fresh.AllDone() {
				detected = true
			} else if detected {
				return
			}
		}
		t.Fatalf("detected=%v, and not stable again within %d time units", detected, budget)
	})
}

// TestInPlaceMatchesCloneFromScramble starts both paths from the same
// adversarial arbitrary states — covering poison verifier states, corrupted
// pulses, epoch floods, detection, and the re-execution that follows.
func TestInPlaceMatchesCloneFromScramble(t *testing.T) {
	g := graph.RandomConnected(12, 28, 17)
	r := NewRunner(g, g.N(), verify.Sync, 5)
	r.Eng.Parallel = false
	r.Scramble(rand.New(rand.NewSource(23)))

	fresh := newEngine(g, verify.Sync, 5, false)
	inplace := newEngine(g, verify.Sync, 5, true)
	for v := 0; v < g.N(); v++ {
		st := r.Eng.State(v).(*SState)
		fresh.SetState(v, st.Clone())
		inplace.SetState(v, st.Clone())
	}
	m := NewMachine(g, g.N(), verify.Sync)
	rounds := 2*(m.resyncDur()+m.buildDur()+m.labelDur()) + 400
	for rd := 0; rd < rounds; rd++ {
		fresh.StepSync()
		inplace.StepSync()
		compareEngines(t, rd, fresh, inplace, nil)
	}
}

// TestSStateCloneIndependence mutates every nested sub-state of a clone —
// Build, BuildPrev, and Check with its label block — and asserts the
// original is untouched. This is the aliasing guard the in-place scratch
// recycling relies on.
func TestSStateCloneIndependence(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	l, err := verify.MarkTree(g, spanningEdges(g), false)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *SState {
		b := syncmst.NewState(g.ID(0))
		b.Level = 2
		bp := syncmst.NewState(g.ID(0))
		bp.Level = 1
		return &SState{
			MyID:      g.ID(0),
			Epoch:     3,
			Phase:     PhaseBuild,
			Pulse:     7,
			Build:     b,
			BuildPrev: bp,
			Check:     &verify.VState{MyID: g.ID(0), ParentPort: -1, L: l.Labels[0].Clone()},
		}
	}
	orig, pristine := mk(), mk() // independently built reference snapshot

	c := orig.Clone().(*SState)
	if !reflect.DeepEqual(orig, c) {
		t.Fatal("clone differs from original before mutation")
	}
	c.Epoch = 999
	c.Build.Level = 999
	c.Build.RootID = 999
	c.BuildPrev.ParentPort = 999
	c.Check.ParentPort = 999
	c.Check.L.SP.Dist = 999
	if hs := &c.Check.L.HS; hs.Levels() > 0 {
		if hs.RootsAt(0) == hierarchy.RootsYes {
			hs.SetRootsAt(0, hierarchy.RootsNone)
		} else {
			hs.SetRootsAt(0, hierarchy.RootsYes)
		}
	}
	if stored := c.Check.L.Train.Top.Stored(); len(stored) > 0 {
		stored[0].W = 999
	}
	c.Check.TopS.UpNext = 999

	if !reflect.DeepEqual(orig, pristine) {
		t.Fatal("mutating the clone changed the original")
	}
}

// spanningEdges returns the edges of a BFS spanning tree of g (a valid
// input for MarkTree).
func spanningEdges(g *graph.Graph) []int {
	seen := make([]bool, g.N())
	seen[0] = true
	queue := []int{0}
	var edges []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for q := 0; q < g.Degree(v); q++ {
			h := g.Half(v, q)
			if !seen[h.Peer] {
				seen[h.Peer] = true
				edges = append(edges, h.Edge)
				queue = append(queue, h.Peer)
			}
		}
	}
	return edges
}
