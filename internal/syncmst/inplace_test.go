package syncmst

import (
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// freshStep hides the engine's recycled scratch state from a machine: every
// step gets nil scratch, so every next state is built fresh — the reference
// the recycled path must match.
type freshStep struct{ runtime.Machine }

func (f freshStep) Step(v *runtime.View, _ runtime.State) runtime.State {
	return f.Machine.Step(v, nil)
}

// TestInPlaceMatchesClone asserts the SYNC_MST register program produces
// bit-identical states with recycled and with nil scratch, every round
// of a full construction.
func TestInPlaceMatchesClone(t *testing.T) {
	g := graph.RandomConnected(48, 120, 11)
	fresh := runtime.New(g, freshStep{Machine{}}, 1)
	inplace := runtime.New(g, Machine{}, 1)
	for r := 0; r < 400*2; r++ {
		fresh.StepSync()
		inplace.StepSync()
		for v := 0; v < g.N(); v++ {
			if !reflect.DeepEqual(fresh.State(v), inplace.State(v)) {
				t.Fatalf("round %d node %d: in-place state diverged from Step", r, v)
			}
		}
		if fresh.AllDone() {
			if !inplace.AllDone() {
				t.Fatal("termination flags diverged")
			}
			return
		}
	}
	t.Fatal("construction did not terminate within the round budget")
}

// TestStateCloneIndependence guards the deep-copy contract of State.Clone
// (a flat value copy today; the assertion keeps it honest if reference
// fields are ever added).
func TestStateCloneIndependence(t *testing.T) {
	orig := NewState(7)
	orig.Level = 3
	orig.BestW = 55
	pristine := NewState(7)
	pristine.Level = 3
	pristine.BestW = 55

	c := orig.Clone().(*State)
	c.Level = 999
	c.BestW = 999
	c.ParentPort = 999
	c.RootID = 999
	if !reflect.DeepEqual(orig, pristine) {
		t.Fatal("mutating the clone changed the original")
	}
}
