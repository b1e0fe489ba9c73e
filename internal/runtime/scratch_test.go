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

type probeScratch struct{ count int }

func (scratchProbe) Init(v *View) State { return &probeState{} }

func (scratchProbe) Step(v *View) State {
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

// stepOnly embeds a machine behind the Machine interface, so only Init and
// Step are promoted: StepInPlace stays hidden and the engine takes its
// Machine.Step fallback (the path the async daemon and machines without the
// fast path use).
type stepOnly struct{ Machine }

// TestStepFallbackMatchesInPlace asserts the engine's Machine.Step fallback
// and its in-place fast path produce the same rounds.
func TestStepFallbackMatchesInPlace(t *testing.T) {
	var m Machine = stepOnly{FloodMin{}}
	if _, ok := m.(InPlaceStepper); ok {
		t.Fatal("stepOnly leaked the StepInPlace method")
	}
	g := graph.Path(6, 2)
	e := New(g, m, 2)
	want := New(g, FloodMin{}, 2)
	for r := 0; r < 10; r++ {
		e.StepSync()
		want.StepSync()
		for v := 0; v < g.N(); v++ {
			if e.State(v).(*FloodMinState).Min != want.State(v).(*FloodMinState).Min {
				t.Fatalf("round %d node %d: Step fallback diverged from the fast path", r, v)
			}
		}
	}
}
