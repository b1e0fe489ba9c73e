package runtime

import (
	"testing"

	"ssmst/internal/graph"
)

// dirtyProbe is a machine that marks itself changed at one chosen (node,
// round) and records, in every state, whether the node observed a
// neighbourhood change going into the round. It pins down the dirty-epoch
// semantics memoizing machines rely on:
//
//   - an in-step mark becomes visible exactly one round later (when the
//     written state itself becomes visible), never within the marking round;
//   - SetState/Corrupt marks are visible at the very next round;
//   - epochs are deterministic under parallel stepping.
type dirtyProbe struct {
	markNode  int
	markRound int
}

type dirtyState struct {
	// ChangedSince[k] = NeighbourhoodChangedSince(Round()-1-k) at step time,
	// for k = 0, 1.
	Changed     bool
	ChangedPrev bool
}

func (s *dirtyState) BitSize() int { return 2 }
func (s *dirtyState) Clone() State { c := *s; return &c }
func (s *dirtyState) Alarm() bool  { return false }
func (s *dirtyState) Done() bool   { return false }

func (m dirtyProbe) Init(v *View) State { return &dirtyState{} }

func (m dirtyProbe) Step(v *View, _ State) State {
	s := &dirtyState{
		Changed:     v.NeighbourhoodChangedSince(int64(v.Round()) - 1),
		ChangedPrev: v.NeighbourhoodChangedSince(int64(v.Round()) - 2),
	}
	if v.Node() == m.markNode && v.Round() == m.markRound {
		v.MarkChanged()
	}
	return s
}

// TestDirtyEpochVisibility: a mark made while stepping round r is observed
// by the whole closed neighbourhood at round r+1 and by nobody at round r —
// matching when the marked state itself becomes readable.
func TestDirtyEpochVisibility(t *testing.T) {
	g := graph.Path(5, 1) // 0-1-2-3-4
	e := New(g, dirtyProbe{markNode: 1, markRound: 3}, 1)

	probe := func(round int, wantChanged map[int]bool) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			got := e.State(v).(*dirtyState).Changed
			if got != wantChanged[v] {
				t.Errorf("round %d node %d: Changed=%v, want %v", round, v, got, wantChanged[v])
			}
		}
	}
	none := map[int]bool{}

	e.RunSyncRounds(4) // rounds 0..3 stepped; the mark fired during round 3
	probe(3, none)     // the marking round itself must not see the mark
	e.StepSync()       // round 4 reads the round-4 buffer: mark visible
	probe(4, map[int]bool{0: true, 1: true, 2: true})
	e.StepSync() // round 5: the change epoch (4) is behind Round()-1 again
	probe(5, none)
}

// TestDirtyEpochSetState: SetState (and Corrupt) marks the node one epoch
// past the current round — strictly greater than any memo stamp the
// installed state could legally hold — so the next round's steps re-probe
// unconditionally. The mark is visible for two rounds (the round that reads
// the injected state, and the one after, matching the strict inequality)
// and then ages out.
func TestDirtyEpochSetState(t *testing.T) {
	g := graph.Path(4, 2)
	e := New(g, dirtyProbe{markNode: -1}, 1)
	e.RunSyncRounds(3)
	e.SetState(2, &dirtyState{})
	for round := 0; round < 2; round++ {
		e.StepSync()
		for v, want := range map[int]bool{0: false, 1: true, 2: true, 3: true} {
			if got := e.State(v).(*dirtyState).Changed; got != want {
				t.Errorf("round +%d node %d: Changed=%v, want %v after SetState(2)", round, v, got, want)
			}
		}
	}
	e.StepSync()
	for v := 0; v < g.N(); v++ {
		if e.State(v).(*dirtyState).Changed {
			t.Errorf("node %d: mark did not age out", v)
		}
	}
}

// TestDirtyEpochParallelDeterminism: dirty epochs are frozen during a round
// (in-round marks buffer until the boundary), so the parallel engine
// observes the same change bits as the serial one on every round.
func TestDirtyEpochParallelDeterminism(t *testing.T) {
	g := graph.RandomConnected(300, 700, 3)
	m := dirtyProbe{markNode: 17, markRound: 5}
	serial := New(g, m, 1)
	par := New(g, m, 1)
	par.Parallel = true
	par.Workers = PoolWorkers()
	for r := 0; r < 12; r++ {
		serial.StepSync()
		par.StepSync()
		for v := 0; v < g.N(); v++ {
			a, b := serial.State(v).(*dirtyState), par.State(v).(*dirtyState)
			if *a != *b {
				t.Fatalf("round %d node %d: serial %+v != parallel %+v", r, v, *a, *b)
			}
		}
	}
}
