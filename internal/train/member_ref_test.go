package train

import (
	"math/rand"
	"slices"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

// The trains' reads of the strings against their byte-slice reference:
// MemberAt, flagFor and AppendNeededLevels as they were written over a
// []byte Roots string before the strings were packed.

func refMemberAt(d *Down, roots []byte, top bool, split int) bool {
	if !d.Valid {
		return false
	}
	j := d.P.ID.Level
	if j < 0 || j >= len(roots) {
		return false
	}
	if top != (j >= split) {
		return false
	}
	if top {
		return roots[j] != hierarchy.RootsNone
	}
	return d.Flag
}

func refFlagFor(ownID graph.NodeID, roots []byte, top bool, p hierarchy.Piece, parentFlag bool) bool {
	j := p.ID.Level
	if p.ID.RootID == ownID {
		return true
	}
	if j < 0 || j >= len(roots) {
		return false
	}
	if top {
		return roots[j] != hierarchy.RootsNone
	}
	return parentFlag && roots[j] == hierarchy.RootsNo
}

func refAppendNeededLevels(roots []byte, n int) (top, bottom []int) {
	split := LevelSplit(n)
	for j := 0; j < len(roots); j++ {
		if roots[j] == hierarchy.RootsNone {
			continue
		}
		if j >= split {
			top = append(top, j)
		} else {
			bottom = append(bottom, j)
		}
	}
	return top, bottom
}

// checkMembershipReads compares every membership read of the packed strings
// s with the reference over roots, its Roots string, for a node of
// identity own in a network of n nodes: every level from -1 to one past the
// strings, both trains, valid and invalid buffers, flagged or not, own and
// foreign pieces.
func checkMembershipReads(t *testing.T, tag string, s *hierarchy.Strings, roots []byte, own graph.NodeID, n int) {
	t.Helper()
	split := LevelSplit(n)
	gotTop, gotBot := AppendNeededLevels(nil, nil, s, n)
	wantTop, wantBot := refAppendNeededLevels(roots, n)
	if !slices.Equal(gotTop, wantTop) || !slices.Equal(gotBot, wantBot) {
		t.Fatalf("%s: AppendNeededLevels = %v/%v, want %v/%v", tag, gotTop, gotBot, wantTop, wantBot)
	}
	for j := -1; j <= len(roots)+1; j++ {
		for _, top := range []bool{true, false} {
			for _, rootID := range []graph.NodeID{own, own + 1} {
				p := hierarchy.Piece{ID: hierarchy.FragmentID{RootID: rootID, Level: j}}
				for _, flag := range []bool{true, false} {
					c := &Ctx{OwnID: own, Strings: s, N: n, Top: top}
					if got, want := c.flagFor(p, flag), refFlagFor(own, roots, top, p, flag); got != want {
						t.Fatalf("%s: flagFor(level %d, top %v, root %d, parent flag %v) = %v, want %v", tag, j, top, rootID, flag, got, want)
					}
					for _, valid := range []bool{true, false} {
						d := Down{Valid: valid, Flag: flag, P: p}
						if got, want := MemberAt(&d, s, top, split), refMemberAt(&d, roots, top, split); got != want {
							t.Fatalf("%s: MemberAt(level %d, top %v, valid %v, flag %v) = %v, want %v", tag, j, top, valid, flag, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMembershipReadsMatchReference runs checkMembershipReads on every node
// of marked instances, reading the reference Roots off the canonical byte
// form, and on random Roots strings of every length a block can hold.
func TestMembershipReadsMatchReference(t *testing.T) {
	for _, g := range []*graph.Graph{
		hierarchy.ExampleGraph(),
		graph.RandomConnected(256, 640, 1),
		graph.Grid(12, 16, 2),
	} {
		f := makeFixture(t, g)
		for v := range f.strings {
			roots, _, _, _ := hierarchy.FormatStrings(&f.strings[v])
			checkMembershipReads(t, "marked", &f.strings[v], []byte(roots), g.ID(v), g.N())
		}
	}
	rng := rand.New(rand.NewSource(7))
	symbols := []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone}
	for levels := 0; levels <= hierarchy.MaxLevels; levels++ {
		for trial := 0; trial < 4; trial++ {
			roots := make([]byte, levels)
			var s hierarchy.Strings
			s.SetLevels(levels)
			for j := range roots {
				roots[j] = symbols[rng.Intn(len(symbols))]
				s.SetRootsAt(j, roots[j])
			}
			n := 2 + rng.Intn(1<<uint(1+rng.Intn(20)))
			checkMembershipReads(t, "random", &s, roots, graph.NodeID(1+rng.Intn(1000)), n)
		}
	}
}

// TestSetStoredCopiesItsOwnView: SetStored may be handed a view of the
// block's own pieces (dropping the first piece, say) and keeps their
// values.
func TestSetStoredCopiesItsOwnView(t *testing.T) {
	var l Labels
	a := hierarchy.Piece{ID: hierarchy.FragmentID{RootID: 3, Level: 1}, W: 7}
	b := hierarchy.Piece{ID: hierarchy.FragmentID{RootID: 5, Level: 2}, W: 9}
	l.SetStored([]hierarchy.Piece{a, b})
	l.SetStored(l.Stored()[1:])
	if got := l.Stored(); len(got) != 1 || got[0] != b {
		t.Fatalf("Stored() = %v, want [%v]", got, b)
	}
	var want Labels
	want.SetStored([]hierarchy.Piece{b})
	if l != want {
		t.Fatalf("block %+v, want %+v", l, want)
	}
}
