package verify

import (
	"math/bits"
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/train"
)

// appendClaimedLevels appends J(v) — the levels at which the strings claim
// a fragment containing the node — to dst in ascending order: the
// reference list the mask Members and claimAt are checked against, read
// off the canonical byte form of Roots.
func appendClaimedLevels(dst []int, hs *hierarchy.Strings) []int {
	roots, _, _, _ := hierarchy.FormatStrings(hs)
	for j := 0; j < len(roots); j++ {
		if roots[j] != hierarchy.RootsNone {
			dst = append(dst, j)
		}
	}
	return dst
}

// checkClaimMask fails unless hs.Members() holds exactly the reference
// list: one set bit per claimed level, and claimAt(·, i) returning the i-th
// level in ascending order.
func checkClaimMask(t *testing.T, tag string, hs *hierarchy.Strings) {
	t.Helper()
	levels := appendClaimedLevels(nil, hs)
	m := hs.Members()
	if got := bits.OnesCount64(m); got != len(levels) {
		t.Fatalf("%s: |Members| = %d, want %d (levels %v)", tag, got, len(levels), levels)
	}
	for i, j := range levels {
		if got := claimAt(m, i); got != j {
			t.Fatalf("%s: claimAt(%#x, %d) = %d, want %d (levels %v)", tag, m, i, got, j, levels)
		}
	}
}

// TestClaimMaskMatchesLevelList pins the J(v) mask against the ascending
// list: on every node of every family's marked instance, and on random
// Roots strings of every length a marked block can have (ℓ+1 ≤ 63).
func TestClaimMaskMatchesLevelList(t *testing.T) {
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 256, 3)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		for v := range l.Labels {
			checkClaimMask(t, fam, &l.Labels[v].HS)
		}
	}
	rng := rand.New(rand.NewSource(5))
	symbols := []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone}
	for levels := 0; levels <= 63; levels++ {
		for trial := 0; trial < 8; trial++ {
			hs := new(hierarchy.Strings)
			hs.SetLevels(levels)
			for j := 0; j < levels; j++ {
				hs.SetRootsAt(j, symbols[rng.Intn(len(symbols))])
			}
			checkClaimMask(t, "random", hs)
		}
	}
}

// TestAdvanceLevelResetsPerLevelRegisters locks the single-owner wrap
// invariant: every site that moves the Ask cursor goes through advanceLevel,
// which wraps AskIdx into [0, numLevels) and resets every per-level sampler
// register — the capture timer, the asynchronous server sweep, the Want
// request and the captured candidate port. (The capture-timeout path used to
// inline its own wrap, which reset only CapTimer; a corrupted ServerCur or a
// stale Want could then leak across levels.)
func TestAdvanceLevelResetsPerLevelRegisters(t *testing.T) {
	s := &VState{
		AskIdx:    2,
		AskValid:  true,
		CapTimer:  9,
		ServerCur: 3,
		ServerTmr: 4,
		CandPort:  5,
		Want:      train.Want{Valid: true, ServerID: 42, Level: 1},
	}
	s.advanceLevel(3)
	if s.AskIdx != 0 {
		t.Fatalf("AskIdx = %d after wrap from 2 over 3 levels, want 0", s.AskIdx)
	}
	if s.AskValid || s.CapTimer != 0 || s.ServerCur != 0 || s.ServerTmr != 0 {
		t.Fatalf("per-level registers not reset: %+v", s)
	}
	if s.Want != (train.Want{}) {
		t.Fatalf("Want not cleared: %+v", s.Want)
	}
	if s.CandPort != -1 {
		t.Fatalf("CandPort = %d after level advance, want -1", s.CandPort)
	}
}

// TestSamplerAskIdxInRangeAfterLevelShrink injects label faults that shrink
// every node's claimed-level set J(v) while pushing the Ask cursor far out
// of range, then asserts the cursor is back inside [0, |J(v)|) after every
// subsequent round — the invariant the unified advanceLevel wrap (plus the
// entry clamp) must maintain even when |J(v)| changes between rounds.
func TestSamplerAskIdxInRangeAfterLevelShrink(t *testing.T) {
	g := graph.RandomConnected(48, 120, 21)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, 4)
	r.Eng.Parallel = false
	r.Eng.RunSyncRounds(DetectionBudget(g.N()) / 8)

	for v := 0; v < g.N(); v++ {
		r.Inject(v, func(s *VState) {
			// Withdraw every claimed level above the lowest one and push the
			// cursor well past any legal index.
			first := true
			for j := 0; j < s.L.HS.Levels(); j++ {
				if s.L.HS.RootsAt(j) == hierarchy.RootsNone {
					continue
				}
				if first {
					first = false
					continue
				}
				s.L.HS.SetRootsAt(j, hierarchy.RootsNone)
			}
			s.AskIdx = 997
		})
	}
	for i := 0; i < 60; i++ {
		r.Step()
		for v := 0; v < g.N(); v++ {
			st := r.Eng.State(v).(*VState)
			levels := appendClaimedLevels(nil, &st.L.HS)
			if len(levels) == 0 {
				if st.AskValid {
					t.Fatalf("round %d node %d: AskValid with empty level set", i, v)
				}
				continue
			}
			if st.AskIdx < 0 || int(st.AskIdx) >= len(levels) {
				t.Fatalf("round %d node %d: AskIdx %d outside [0,%d)", i, v, st.AskIdx, len(levels))
			}
		}
	}
}
