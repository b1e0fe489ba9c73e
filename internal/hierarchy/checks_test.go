package hierarchy

import (
	"math/rand"
	"testing"
)

// corrupting any single string entry of the example must be caught by the
// local checks at some node (the 1-proof property of §5: adversarial labels
// for a structure that is not a legal hierarchy representation are rejected
// by at least one node).
func TestChecksCatchSingleEntryCorruptions(t *testing.T) {
	h := mustExample(t)
	base := MarkStrings(h)
	ell := h.Ell()
	n := h.Tree.G.N()

	clone := func() []Strings {
		out := make([]Strings, n)
		for v := range base {
			out[v] = base[v]
		}
		return out
	}

	caught, missed := 0, 0
	tryCorruption := func(name string, mutate func(ss []Strings) bool) {
		ss := clone()
		if !mutate(ss) {
			return
		}
		// A corruption is acceptable if caught locally OR if the strings
		// still represent a valid hierarchy with minimal candidates (then
		// nothing is wrong semantically).
		if vs := CheckAll(h.Tree, ell, ss); len(vs) > 0 {
			caught++
			return
		}
		if h2, err := fromStrings(h.Tree, ss); err == nil {
			if err := h2.CheckMinimality(); err == nil {
				return // semantically still a correct proof
			}
			// Not locally caught but also not a legal minimal hierarchy:
			// this is exactly what the §6–8 minimality machinery (not the
			// string checks) must detect; not a miss for this layer if the
			// represented hierarchy is well-formed.
			return
		}
		missed++
		t.Errorf("%s: corruption neither caught nor benign", name)
	}

	rootsSymbols := []byte{RootsYes, RootsNo, RootsNone}
	endPSymbols := []byte{EndPUp, EndPDown, EndPNone, EndPStar}
	for v := 0; v < n; v++ {
		for j := 0; j <= ell; j++ {
			for _, sym := range rootsSymbols {
				v, j, sym := v, j, sym
				tryCorruption("roots", func(ss []Strings) bool {
					if ss[v].RootsAt(j) == sym {
						return false
					}
					ss[v].SetRootsAt(j, sym)
					return true
				})
			}
			for _, sym := range endPSymbols {
				v, j, sym := v, j, sym
				tryCorruption("endp", func(ss []Strings) bool {
					if ss[v].EndPAt(j) == sym {
						return false
					}
					ss[v].SetEndPAt(j, sym)
					return true
				})
			}
			v, j := v, j
			tryCorruption("parents", func(ss []Strings) bool {
				ss[v].SetParentsAt(j, !ss[v].ParentsAt(j))
				return true
			})
			tryCorruption("orendp", func(ss []Strings) bool {
				ss[v].SetOrEndPAt(j, !ss[v].OrEndPAt(j))
				return true
			})
		}
	}
	if caught == 0 {
		t.Fatal("no corruption was caught — checks are vacuous")
	}
	t.Logf("single-entry corruptions: %d caught locally, %d missed", caught, missed)
}

func TestChecksCatchTruncatedStrings(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	ss[3].SetLevels(2)
	if vs := CheckAll(h.Tree, h.Ell(), ss); len(vs) == 0 {
		t.Fatal("truncated string accepted")
	}
}

func TestChecksCatchWrongEll(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	// The verifier believes ℓ is larger (e.g., adversarial NumK value):
	// every string is now too short.
	if vs := CheckAll(h.Tree, h.Ell()+1, ss); len(vs) == 0 {
		t.Fatal("ℓ mismatch accepted")
	}
}

func TestChecksCatchRandomMultiCorruptions(t *testing.T) {
	h := mustExample(t)
	base := MarkStrings(h)
	ell := h.Ell()
	n := h.Tree.G.N()
	rng := rand.New(rand.NewSource(12345))
	rootsSymbols := []byte{RootsYes, RootsNo, RootsNone}
	endPSymbols := []byte{EndPUp, EndPDown, EndPNone, EndPStar}

	for trial := 0; trial < 500; trial++ {
		ss := make([]Strings, n)
		for v := range base {
			ss[v] = base[v]
		}
		k := 1 + rng.Intn(5)
		for i := 0; i < k; i++ {
			v, j := rng.Intn(n), rng.Intn(ell+1)
			switch rng.Intn(4) {
			case 0:
				ss[v].SetRootsAt(j, rootsSymbols[rng.Intn(3)])
			case 1:
				ss[v].SetEndPAt(j, endPSymbols[rng.Intn(4)])
			case 2:
				ss[v].SetParentsAt(j, !ss[v].ParentsAt(j))
			case 3:
				ss[v].SetOrEndPAt(j, !ss[v].OrEndPAt(j))
			}
		}
		if len(CheckAll(h.Tree, ell, ss)) > 0 {
			continue // caught locally
		}
		h2, err := fromStrings(h.Tree, ss)
		if err != nil {
			t.Fatalf("trial %d: locally accepted strings do not represent a hierarchy: %v", trial, err)
		}
		// Locally-accepted strings must represent a well-formed hierarchy
		// (that is the soundness guarantee of §5 — minimality is checked by
		// the separate §6–8 machinery).
		_ = h2
	}
}

// TestSetLevelsDropsEntries: shrinking the strings drops the entries past
// the new length, so growing them back reads '*', '*', false, false there
// and the value equals a fresh one with the kept prefix.
func TestSetLevelsDropsEntries(t *testing.T) {
	h := mustExample(t)
	ss := MarkStrings(h)
	for v := range ss {
		s := ss[v]
		k := s.Levels()
		s.SetLevels(1)
		s.SetLevels(k)
		var want Strings
		want.SetLevels(k)
		want.SetRootsAt(0, ss[v].RootsAt(0))
		want.SetEndPAt(0, ss[v].EndPAt(0))
		want.SetParentsAt(0, ss[v].ParentsAt(0))
		want.SetOrEndPAt(0, ss[v].OrEndPAt(0))
		if s != want {
			t.Fatalf("node %d: shrunk and regrown strings differ from the kept prefix", v)
		}
	}
}
