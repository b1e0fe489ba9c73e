package verify

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

// refBlock is the reference form of the labels the fault menu rewrites:
// the four strings in their canonical byte form, with Roots and EndP as
// byte slices, and each train's stored pieces as a slice.
type refBlock struct {
	roots, endP     []byte
	parents, orEndP string
	bottom, top     []hierarchy.Piece
}

func refBlockOf(nl *NodeLabels) *refBlock {
	roots, endP, parents, orEndP := hierarchy.FormatStrings(&nl.HS)
	return &refBlock{
		roots: []byte(roots), endP: []byte(endP), parents: parents, orEndP: orEndP,
		bottom: slices.Clone(nl.Train.Bottom.Stored()), top: slices.Clone(nl.Train.Top.Stored()),
	}
}

// refApplyLabelFault is applyFaultKind's label-rewriting kinds as they were
// written over the slice form.
func refApplyLabelFault(b *refBlock, kind FaultKind, rng *rand.Rand) bool {
	switch kind {
	case FaultStoredPieceW:
		for _, lab := range [][]hierarchy.Piece{b.bottom, b.top} {
			for i := range lab {
				if lab[i].W != hierarchy.NoOutWeight {
					lab[i].W += graph.Weight(1 + rng.Intn(5))
					return true
				}
			}
		}
	case FaultStoredPieceID:
		for _, lab := range [][]hierarchy.Piece{b.bottom, b.top} {
			if len(lab) > 0 {
				lab[0].ID.RootID += graph.NodeID(1 + rng.Intn(1000))
				return true
			}
		}
	case FaultRootsEntry:
		if len(b.roots) > 0 {
			j := rng.Intn(len(b.roots))
			old := b.roots[j]
			for _, sym := range []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone} {
				if sym != old {
					b.roots[j] = sym
					return true
				}
			}
		}
	case FaultEndPEntry:
		if len(b.endP) > 0 {
			j := rng.Intn(len(b.endP))
			old := b.endP[j]
			for _, sym := range []byte{hierarchy.EndPUp, hierarchy.EndPDown, hierarchy.EndPNone, hierarchy.EndPStar} {
				if sym != old {
					b.endP[j] = sym
					return true
				}
			}
		}
	}
	return false
}

// TestLabelFaultsMatchReference: on every node of every family at n=256,
// three successive injections of each label-rewriting kind pick the same
// level, symbol and piece as the reference from the same rng draws, change
// nothing else, and leave both rngs at the same point.
func TestLabelFaultsMatchReference(t *testing.T) {
	kinds := []FaultKind{FaultStoredPieceW, FaultStoredPieceID, FaultRootsEntry, FaultEndPEntry}
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		for v := range l.Labels {
			for _, kind := range kinds {
				seed := int64(v)*int64(numFaultKinds) + int64(kind)
				rngS, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				s := l.NodeState(v).Clone().(*VState)
				ref := refBlockOf(s.L)
				for i := 0; i < 3; i++ {
					got := ApplyFault(s, kind, rngS, g.Degree(v))
					want := refApplyLabelFault(ref, kind, rngR)
					if got != want {
						t.Fatalf("%s node %d %v #%d: changed=%v, want %v", fam, v, kind, i, got, want)
					}
					if after := refBlockOf(s.L); !reflect.DeepEqual(after, ref) {
						t.Fatalf("%s node %d %v #%d:\n got %+v\nwant %+v", fam, v, kind, i, after, ref)
					}
				}
				if rngS.Int63() != rngR.Int63() {
					t.Fatalf("%s node %d %v: the injections drew differently from the reference", fam, v, kind)
				}
			}
		}
	}
}
