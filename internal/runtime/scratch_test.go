package runtime

import (
	"testing"

	"ssmst/internal/graph"
)

// scratchProbe counts, through the View's machine-scratch slot, how many
// times each View stepped — verifying the slot persists across rounds and
// is private to its View.
type scratchProbe struct{}

type probeState struct{ steps int }

func (s *probeState) BitSize() int { return 1 }
func (s *probeState) Clone() State { c := *s; return &c }
func (s *probeState) Alarm() bool  { return false }
func (s *probeState) Done() bool   { return false }

type probeScratch struct{ count int }

func (scratchProbe) Init(v *View) State { return &probeState{} }

func (scratchProbe) Step(v *View, _ State) State {
	sc, ok := v.MachineScratch().(*probeScratch)
	if !ok {
		sc = &probeScratch{}
		v.SetMachineScratch(sc)
	}
	sc.count++
	return &probeState{steps: sc.count}
}

// TestMachineScratchPersistsAcrossRounds asserts that a serial engine's
// single View carries its scratch from round to round: after r rounds the
// per-View counter has seen r*n steps, so node i's state holds r*n-(n-1-i).
func TestMachineScratchPersistsAcrossRounds(t *testing.T) {
	g := graph.Path(5, 1)
	e := New(g, scratchProbe{}, 1)
	const rounds = 7
	e.RunSyncRounds(rounds)
	n := g.N()
	for i := 0; i < n; i++ {
		want := (rounds-1)*n + i + 1
		if got := e.State(i).(*probeState).steps; got != want {
			t.Fatalf("node %d: scratch counter %d, want %d", i, got, want)
		}
	}
}

// freshStep hides the engine's recycled scratch state from a machine: every
// step gets nil scratch and builds its next state fresh.
type freshStep struct{ Machine }

func (f freshStep) Step(v *View, _ State) State { return f.Machine.Step(v, nil) }

// TestStepFallbackMatchesInPlace asserts that Machine.Step with nil scratch
// (a fresh state) and with the recycled two-rounds-old state produce the
// same rounds.
func TestStepFallbackMatchesInPlace(t *testing.T) {
	g := graph.Path(6, 2)
	e := New(g, freshStep{FloodMin{}}, 2)
	want := New(g, FloodMin{}, 2)
	for r := 0; r < 10; r++ {
		e.StepSync()
		want.StepSync()
		for v := 0; v < g.N(); v++ {
			if e.State(v).(*FloodMinState).Min != want.State(v).(*FloodMinState).Min {
				t.Fatalf("round %d node %d: fresh step diverged from the recycled one", r, v)
			}
		}
	}
}
