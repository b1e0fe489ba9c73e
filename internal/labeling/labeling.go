// Package labeling implements the paper's 1-proof labeling schemes: the
// warm-up examples of §2.6 that the verifier builds on — SP (a rooted
// spanning tree) and NumK (knowing the number of nodes) — and the marker of
// the O(log² n)-bit 1-time MST verification scheme of Korman–Kutten
// [54,55], whose label width the experiments compare against.
//
// Each of SP and NumK consists of a marker (computing the labels of a
// correct instance) and a verifier: a pure local predicate over a node's
// own label and the labels of its neighbours, evaluated in one time unit.
// The register-level verifier of internal/verify calls these predicates
// every round; 1-proof schemes are trivially self-stabilizing (§2.4).
package labeling

import (
	"fmt"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
)

// SPLabel is the Example SP label (§2.6) with the remark's extension: every
// node publishes the root's identity, its tree distance from the root, its
// own identity and its parent's identity, letting each node identify its
// parent and children in one time unit.
type SPLabel struct {
	RootID   graph.NodeID
	Dist     int
	SelfID   graph.NodeID
	ParentID graph.NodeID // 0 at the root
}

// BitSize returns the encoded width of the label.
func (l *SPLabel) BitSize() int {
	return bits.Sum(
		bits.ForInt(int64(l.RootID)),
		bits.ForInt(int64(l.Dist)),
		bits.ForInt(int64(l.SelfID)),
		bits.ForInt(int64(l.ParentID)),
	)
}

// MarkSP computes SP labels for a rooted spanning tree.
func MarkSP(t *graph.Tree) []SPLabel {
	g := t.G
	out := make([]SPLabel, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = SPLabel{
			RootID: g.ID(t.Root),
			Dist:   t.Depth(v),
			SelfID: g.ID(v),
		}
		if p := t.Parent[v]; p >= 0 {
			out[v].ParentID = g.ID(p)
		}
	}
	return out
}

// CheckSP evaluates the SP verifier at one node: own is the node's label,
// ownID its true identity, parentPointer the label of the node its component
// points at (nil when the component has no pointer, i.e. the claimed root),
// and nbs the labels of all graph neighbours.
//
// The conditions are those of Example SP: agreement on the root identity
// with every neighbour, distance 0 exactly at the root, the parent one unit
// closer, and the published identities consistent.
func CheckSP(own *SPLabel, ownID graph.NodeID, parentPointer *SPLabel, nbs []*SPLabel) error {
	if own.SelfID != ownID {
		return fmt.Errorf("sp: published identity %d ≠ actual %d", own.SelfID, ownID)
	}
	for _, nb := range nbs {
		if nb.RootID != own.RootID {
			return fmt.Errorf("sp: root disagreement %d vs %d", own.RootID, nb.RootID)
		}
	}
	if parentPointer == nil {
		if own.Dist != 0 {
			return fmt.Errorf("sp: no parent pointer but distance %d", own.Dist)
		}
		if own.RootID != ownID {
			return fmt.Errorf("sp: root claims RootID %d ≠ own %d", own.RootID, ownID)
		}
		if own.ParentID != 0 {
			return fmt.Errorf("sp: root has ParentID %d", own.ParentID)
		}
		return nil
	}
	if own.Dist == 0 {
		return fmt.Errorf("sp: distance 0 at non-root")
	}
	if parentPointer.Dist != own.Dist-1 {
		return fmt.Errorf("sp: parent distance %d, own %d", parentPointer.Dist, own.Dist)
	}
	if own.ParentID != parentPointer.SelfID {
		return fmt.Errorf("sp: ParentID %d ≠ parent's SelfID %d", own.ParentID, parentPointer.SelfID)
	}
	return nil
}

// SizeLabel is the Example NumK label: the claimed node count and the size
// of the node's subtree.
type SizeLabel struct {
	N   int // claimed number of nodes, equal at all nodes
	Sub int // number of nodes in this node's subtree
}

// BitSize returns the encoded width.
func (l *SizeLabel) BitSize() int {
	return bits.ForInt(int64(l.N)) + bits.ForInt(int64(l.Sub))
}

// MarkSize computes NumK labels for a rooted spanning tree.
func MarkSize(t *graph.Tree) []SizeLabel {
	out := make([]SizeLabel, t.G.N())
	for v := range out {
		out[v] = SizeLabel{N: t.G.N(), Sub: t.SubtreeSize(v)}
	}
	return out
}

// CheckSize evaluates the NumK verifier at one node: equality of N with all
// neighbours, Sub = 1 + Σ children's Sub, and Sub == N at the root.
func CheckSize(own *SizeLabel, isRoot bool, children []*SizeLabel, nbs []*SizeLabel) error {
	for _, nb := range nbs {
		if nb.N != own.N {
			return fmt.Errorf("size: N disagreement %d vs %d", own.N, nb.N)
		}
	}
	sum := 1
	for _, c := range children {
		sum += c.Sub
	}
	if own.Sub != sum {
		return fmt.Errorf("size: Sub %d ≠ 1+children %d", own.Sub, sum)
	}
	if isRoot && own.Sub != own.N {
		return fmt.Errorf("size: root Sub %d ≠ N %d", own.Sub, own.N)
	}
	return nil
}
