package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
)

// freshStep hides the engine's recycled scratch state from a machine: every
// step gets nil scratch, so every next state is built fresh — the reference
// the recycled path must match.
type freshStep struct{ runtime.Machine }

func (f freshStep) Step(v *runtime.View, _ runtime.State) runtime.State {
	return f.Machine.Step(v, nil)
}

// TestInPlaceMatchesClone asserts the verifier's recycled-scratch step is
// bit-identical to Machine.Step with nil scratch, which builds every state
// fresh, through a quiet phase, a multi-layer fault, detection, and the
// alarmed steady state: under the synchronous daemon serial and
// parallel-forced, and under the asynchronous daemon with Jitter, where an
// activation recycles its node's state from two activations back. CI runs
// it under -race, which also exercises the worker pool over the
// scratch-carrying Views.
func TestInPlaceMatchesClone(t *testing.T) {
	g := graph.RandomConnected(64, 160, 5)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("sync", func(t *testing.T) {
		m := &Machine{Mode: Sync, Labeled: l}
		fresh := runtime.New(g, freshStep{m}, 3)
		inplace := runtime.New(g, m, 3)
		par := runtime.New(g, m, 3)
		par.Parallel = true
		par.Workers = runtime.PoolWorkers() // at any n, even on a single-core host
		checkInPlace(t, (*runtime.Engine).StepSync, fresh, inplace, par)
	})
	t.Run("async", func(t *testing.T) {
		m := &Machine{Mode: Async, Labeled: l}
		fresh := runtime.New(g, freshStep{m}, 3)
		inplace := runtime.New(g, m, 3)
		fresh.Jitter, inplace.Jitter = 0.3, 0.3
		checkInPlace(t, (*runtime.Engine).StepAsync, fresh, inplace)
	})
}

// checkInPlace steps the reference engine fresh and the recycling engines
// in lockstep — 40 quiet time units, the same multi-layer fault on every
// engine, 200 more units — and compares them state for state after every
// unit. The fault must be detected.
func checkInPlace(t *testing.T, step func(*runtime.Engine), fresh *runtime.Engine, recycling ...*runtime.Engine) {
	t.Helper()
	n := fresh.G().N()
	engines := append([]*runtime.Engine{fresh}, recycling...)
	compare := func(r int) {
		t.Helper()
		for v := 0; v < n; v++ {
			// The states themselves, memos included: a recycled state must
			// carry exactly the static verdict, label width and coast
			// certificate a fresh one computes.
			want := fresh.State(v)
			for i, e := range recycling {
				if got := e.State(v); !reflect.DeepEqual(want, got) {
					t.Fatalf("unit %d node %d: recycling engine %d diverged from Step\nStep:      %+v\nrecycling: %+v", r, v, i, want, got)
				}
			}
		}
		for i, e := range recycling {
			if fresh.MaxStateBits() != e.MaxStateBits() {
				t.Fatalf("unit %d: maxBits diverged: Step %d, recycling engine %d %d",
					r, fresh.MaxStateBits(), i, e.MaxStateBits())
			}
		}
	}
	for r := 0; r < 40; r++ {
		for _, e := range engines {
			step(e)
		}
		compare(r)
	}

	// Inject the same multi-layer fault on every engine and keep comparing
	// through detection and the alarmed steady state.
	rng := rand.New(rand.NewSource(9))
	victim := rng.Intn(n)
	for _, e := range engines {
		e.Corrupt(victim, func(s runtime.State) runtime.State {
			vs := s.(*VState)
			vs.L.SP.Dist += 3
			if vs.L.HS.Levels() > 0 {
				vs.L.HS.SetRootsAt(0, hierarchy.RootsNone) // violates RS3
			}
			return vs
		})
	}
	detected := false
	for r := 0; r < 200; r++ {
		for _, e := range engines {
			step(e)
		}
		compare(40 + r)
		if _, bad := fresh.AnyAlarm(); bad {
			detected = true
		}
	}
	if !detected {
		t.Fatal("fault was never detected; the comparison did not exercise the alarm paths")
	}
}

// otherSymbol returns a if cur is not a, else b: a valid symbol other than
// cur, for mutating an entry of the packed strings.
func otherSymbol(cur, a, b byte) byte {
	if cur != a {
		return a
	}
	return b
}

// TestVStateCloneIndependence mutates every nested reference of a clone and
// asserts the original is untouched — the guard that keeps Clone a deep
// copy, the single copy-on-write point of the shared label block. CopyFrom,
// the in-place path's header copy, must instead share the block.
func TestVStateCloneIndependence(t *testing.T) {
	g := graph.RandomConnected(32, 80, 7)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a node that stores pieces so the stored pieces are exercised.
	node := -1
	for v := 0; v < g.N(); v++ {
		if len(l.Labels[v].Train.Top.Stored())+len(l.Labels[v].Train.Bottom.Stored()) > 0 {
			node = v
			break
		}
	}
	if node < 0 {
		t.Fatal("no node with stored pieces")
	}
	orig := &VState{MyID: g.ID(node), ParentPort: 0, L: l.Labels[node].Clone()}
	orig.TopS.UpNext = 4 // some non-zero dynamic state
	// Reference snapshot built from a second, fully independent marker run
	// (Mark is deterministic) — if Clone aliased, a clone-built snapshot
	// would alias the same memory and hide the corruption.
	l2, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	pristine := &VState{MyID: g.ID(node), ParentPort: 0, L: l2.Labels[node].Clone()}
	pristine.TopS.UpNext = 4

	dup := new(VState)
	dup.CopyFrom(orig)
	if !reflect.DeepEqual(orig, dup) {
		t.Fatal("CopyFrom: copy differs from original")
	}
	if dup.L != orig.L {
		t.Fatal("CopyFrom: the label block was copied, want it shared by reference")
	}

	dup = orig.Clone().(*VState)
	if !reflect.DeepEqual(orig, dup) {
		t.Fatal("Clone: copy differs from original before mutation")
	}
	if dup.L == orig.L {
		t.Fatal("Clone: the label block is shared, want a deep copy")
	}
	dup.L.SP.Dist = 91919
	dup.L.Size.N = 91919
	if hs := &dup.L.HS; hs.Levels() > 0 {
		hs.SetRootsAt(0, otherSymbol(hs.RootsAt(0), hierarchy.RootsYes, hierarchy.RootsNone))
		hs.SetEndPAt(0, otherSymbol(hs.EndPAt(0), hierarchy.EndPUp, hierarchy.EndPStar))
		hs.SetParentsAt(0, !hs.ParentsAt(0))
		hs.SetOrEndPAt(0, !hs.OrEndPAt(0))
	}
	for _, stored := range [][]hierarchy.Piece{dup.L.Train.Top.Stored(), dup.L.Train.Bottom.Stored()} {
		if len(stored) > 0 {
			stored[0].ID.RootID = 424242
			stored[0].W = 424242
		}
	}
	dup.L.Train.Top.K = 91919
	dup.TopS.UpNext = 91919
	dup.BotS.CovMask = ^uint64(0)
	dup.AlarmFlag = !dup.AlarmFlag

	if !reflect.DeepEqual(orig, pristine) {
		t.Fatal("Clone: mutating the copy changed the original")
	}
}

// TestAlarmCodeString locks the hoisted name table and the code-qualified
// fallback for out-of-range values.
func TestAlarmCodeString(t *testing.T) {
	if got := AlarmSampler.String(); got != "sampler" {
		t.Fatalf("AlarmSampler.String() = %q", got)
	}
	if got := AlarmNone.String(); got != "none" {
		t.Fatalf("AlarmNone.String() = %q", got)
	}
	if got := AlarmCode(200).String(); got != "AlarmCode(200)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}
