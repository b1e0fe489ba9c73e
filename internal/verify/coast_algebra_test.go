package verify

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/train"
)

// The coast clockwork's load-bearing algebra: advancing a coasting node by
// k rounds in one closed-form CoastAdvance must equal k iterated single
// coastTicks, for every k and from every starting state — including the
// wrap boundaries (dwell expiry, capture timeout, level wrap, watchdog
// wrap) and degenerate out-of-range timer values. The worklist engine's
// soundness reduces to exactly this identity, and the dense engine's coast
// branch, which runs coastAdvance(s, 1), to its k = 1 case.

// coastTick is the reference one-round form of the coast clockwork, written
// as the awake step's increment-then-compare: the resting part roots'
// watchdogs tick (coastTrainTick), and the sampler counts down its dwell or
// runs one capture-starvation round at the current level.
func coastTick(s *VState) {
	coastTrainTick(&s.TopS, &s.L.Train.Top, s.MyID)
	coastTrainTick(&s.BotS, &s.L.Train.Bottom, s.MyID)
	L := bits.OnesCount64(s.L.HS.Members())
	if L == 0 {
		s.AskValid = false
		return
	}
	if s.AskIdx < 0 || int(s.AskIdx) >= L {
		s.AskIdx = 0
	}
	w := int(s.staticWindow)
	if s.AskValid {
		s.AskTimer--
		if s.AskTimer <= 0 {
			s.advanceLevel(L)
		}
		return
	}
	c := int(s.CapTimer) + 1
	s.CapTimer = int32(c)
	if c > w {
		s.advanceLevel(L)
	}
}

// coastTrainTick advances the train half of the reference clockwork by one
// round: a resting part root ticks its peer-invisible watchdog; members and
// empty trains are frozen at their rest fixed point.
func coastTrainTick(st *train.State, l *train.Labels, own graph.NodeID) {
	if l.K == 0 || l.PartRootID != own {
		return
	}
	st.Timer = int32(train.IdleTimerTick(int(st.Timer), l.CycleBudget()))
}

// tickOrbit returns the state after k iterated coastTicks from s. States
// are value copies sharing the label block: tick and advance mutate
// scalars only, and read J(v) off the block.
func tickOrbit(s *VState, k int) *VState {
	c := *s
	for i := 0; i < k; i++ {
		coastTick(&c)
	}
	return &c
}

func advanceOrbit(m *Machine, s *VState, k int) *VState {
	c := *s
	m.coastAdvance(&c, k)
	return &c
}

// orbitSpan returns a k horizon covering several full orbits of s: dwell +
// all levels' capture-starvation periods + watchdog wraps, doubled.
func orbitSpan(s *VState) int {
	L := bits.OnesCount64(s.L.HS.Members())
	if L == 0 {
		L = 1
	}
	return 2*L*(int(s.staticWindow)+1) + 2*int(s.AskTimer) + 64
}

func checkOrbit(t *testing.T, m *Machine, tag string, s *VState) {
	t.Helper()
	span := orbitSpan(s)
	for k := 0; k <= span; k++ {
		want := tickOrbit(s, k)
		got := advanceOrbit(m, s, k)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: advance(%d) != tick^%d\n tick %+v\n adv  %+v", tag, k, k, want, got)
		}
	}
	// Compositionality at a few split points: advance(a);advance(b) ==
	// advance(a+b) — the worklist engine materializes in arbitrary chunks.
	for _, a := range []int{1, 7, int(s.staticWindow), int(s.staticWindow) + 1, span / 2} {
		b := span - a
		if b < 0 {
			continue
		}
		split := advanceOrbit(m, s, a)
		m.coastAdvance(split, b)
		if whole := advanceOrbit(m, s, span); !reflect.DeepEqual(whole, split) {
			t.Fatalf("%s: advance(%d)+advance(%d) != advance(%d)", tag, a, b, span)
		}
	}
}

// TestCoastFootprintCoversOrbit: the footprint a node memoizes when it
// freezes (coastBits, which BitSize reports while it coasts) is never below
// what its state measures anywhere on its coast orbit. Dense and worklist
// stepping both report the memo, so their parity suites cannot see an
// under-count; this test re-measures every coasting node of seeded and
// naturally settled networks with the memo set aside, at every round of
// coastAdvance(·, 1) over orbitSpan rounds — two full sampler orbits,
// which cover two wraps of every resting part root's watchdog (the dwell
// window is twice the largest cycle budget, plus slack).
func TestCoastFootprintCoversOrbit(t *testing.T) {
	forEachMarked(t, []int{64, 256}, seedSeeds[:1], true, func(t *testing.T, g *graph.Graph, l *Labeled, seed int64) {
		seeded := NewWorklistRunner(l, seed)
		frozenWithin2(t, seeded)
		cold := newColdWorklistRunner(l, seed)
		coldSettle(t, cold)
		for _, run := range []struct {
			name string
			r    *Runner
		}{{"seeded", seeded}, {"settled", cold}} {
			for v := 0; v < g.N(); v++ {
				s := *run.r.Eng.State(v).(*VState)
				if !s.coasting {
					t.Fatalf("%s node %d is awake in a frozen network", run.name, v)
				}
				memo := int(s.coastBits)
				s.coastBits = 0 // BitSize measures the fields
				span := orbitSpan(&s)
				for k := 0; k <= span; k++ {
					if b := s.BitSize(); b > memo {
						t.Fatalf("%s node %d: %d bits after %d coast rounds, footprint %d", run.name, v, b, k, memo)
					}
					run.r.Machine.coastAdvance(&s, 1)
				}
			}
		}
	})
}

// TestCoastAdvanceMatchesTicks checks the identity on real certified states
// harvested from a settled network — every node, so the sweep covers part
// roots (live watchdogs), members, leaves, and every sampler level count
// the instance produces.
func TestCoastAdvanceMatchesTicks(t *testing.T) {
	g := graph.RandomConnected(48, 110, 77)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newColdWorklistRunner(l, 5)
	budget := DetectionBudget(g.N())
	frozen := false
	for i := 0; i < budget; i++ {
		r.Step()
		if r.Eng.LastActive() == 0 {
			frozen = true
			break
		}
	}
	if !frozen {
		t.Fatal("network never froze")
	}
	for v := 0; v < g.N(); v++ {
		s := r.Eng.State(v).(*VState)
		if !s.coasting {
			t.Fatalf("node %d awake after freeze", v)
		}
		checkOrbit(t, r.Machine, fmt.Sprintf("node %d", v), s)
	}
}

// TestCoastAdvanceMatchesTicksSynthetic drives the identity through states
// a certified node never reaches — mid-dwell entry points, out-of-range
// timers and cursors as a corruptor could leave them — pinning that the
// closed form is total, not merely correct on the reachable orbit.
func TestCoastAdvanceMatchesTicksSynthetic(t *testing.T) {
	m := &Machine{}
	base := &VState{MyID: 9}
	base.staticWindow = 5
	for _, L := range []int{0, 1, 3} {
		// J(v) = levels 0..L-1: the strings claim a fragment at each.
		labels := new(NodeLabels)
		labels.HS.SetLevels(L)
		for j := 0; j < L; j++ {
			labels.HS.SetRootsAt(j, hierarchy.RootsNo)
		}
		for _, askValid := range []bool{false, true} {
			for _, askTimer := range []int{-3, 0, 1, 2, 6} {
				for _, capTimer := range []int{-2, 0, 3, 5, 9} {
					for _, askIdx := range []int{-1, 0, L - 1, L + 3} {
						s := *base
						s.L = labels
						s.AskValid = askValid
						s.AskTimer = int32(askTimer)
						s.CapTimer = int32(capTimer)
						s.AskIdx = int32(askIdx)
						tag := fmt.Sprintf("L=%d valid=%v ask=%d cap=%d idx=%d",
							L, askValid, askTimer, capTimer, askIdx)
						checkOrbit(t, m, tag, &s)
					}
				}
			}
		}
	}
}
