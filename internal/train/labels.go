// Package train implements the trains of §7: the mechanism that rotates the
// distributed pieces I(F) through each part so that every node sees every
// piece it needs in O(log n) time (synchronous) while holding only O(log n)
// bits.
//
// Design (faithful to §7.1, engineered for self-stabilization):
//
//   - The marker places the part's k pieces on the first ⌈k/2⌉ nodes of the
//     part's DFS order (§6.2). Every node carries verified position labels:
//     PosStart (pieces strictly before it in DFS order), Cnt (pieces stored
//     here), SubCnt (pieces in its part-subtree) and K (the part total) —
//     a NumK-style 1-proof scheme that anchors the train to positions.
//
//   - Convergecast: each node offers an "up car" (pos, piece) to its part
//     parent; a cursor UpNext walks the node's position window in order;
//     consumption is detected by the parent's cursor moving past the car's
//     position. Pieces are pipelined: one hop per round.
//
//   - Broadcast: the part root feeds consumed pieces into a "down buffer";
//     a node copies its part parent's buffer when it differs from its own
//     and the node's own children have caught up (pipelined PIF). The
//     membership flag of §7.1 is recomputed at every copy from the node's
//     own Roots strings.
//
//   - Self-stabilization: the root restarts the cycle with a reset wave
//     whenever a cycle completes or its (label-bounded) cycle budget
//     expires, so arbitrary car/cursor corruption washes out within one
//     budget. Every node runs the §8 cycle-set check: between two wraps of
//     the broadcast position, the levels it saw with positive membership
//     must cover the levels of all fragments containing it.
package train

import (
	"fmt"
	mbits "math/bits"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/partition"
)

// Labels is the per-node, per-train verified label block. The position
// labels are bounded by the part (K ≤ 4λ pieces, depth ≤ 6λ), so they are
// stored in 32 bits and widened to int wherever they are compared or
// summed. The ≤ 2 stored pieces are held inline with their count, so a
// block is one fixed-size value with no reference to share or copy.
type Labels struct {
	PartRootID graph.NodeID
	PosStart   int32
	Cnt        int32
	SubCnt     int32
	K          int32 // total pieces in the part (equal at all part members)
	Depth      int32 // distance from the part root within the part
	DiamBound  int32 // claimed bound on part depth (equal across the part)
	// The pieces kept permanently at this node are stored[:nStored];
	// entries past nStored are zero (Stored, SetStored).
	nStored uint8
	stored  [2]hierarchy.Piece
}

// BitSize measures the label block.
func (l *Labels) BitSize() int {
	total := bits.Sum(
		bits.ForInt(int64(l.PartRootID)),
		bits.ForInt(int64(l.PosStart)),
		bits.ForInt(int64(l.Cnt)),
		bits.ForInt(int64(l.SubCnt)),
		bits.ForInt(int64(l.K)),
		bits.ForInt(int64(l.Depth)),
		bits.ForInt(int64(l.DiamBound)),
	)
	for _, p := range l.stored[:l.nStored] {
		total += p.BitSize()
	}
	return total
}

// Stored returns the pieces kept permanently at this node (≤ 2) in level
// order. The slice is a view of the block: writing an element writes the
// label.
func (l *Labels) Stored() []hierarchy.Piece { return l.stored[:l.nStored] }

// SetStored replaces the stored pieces with a copy of ps. It panics on more
// pieces than a block holds.
func (l *Labels) SetStored(ps []hierarchy.Piece) {
	if len(ps) > len(l.stored) {
		panic(fmt.Sprintf("train: %d stored pieces, a label holds at most %d", len(ps), len(l.stored)))
	}
	var st [2]hierarchy.Piece // ps may be a view of l.stored
	k := copy(st[:], ps)
	l.stored, l.nStored = st, uint8(k)
}

// CycleBudget returns the label-bounded train cycle budget: the single
// source of the 8·(K+diam)+24 formula shared by the train's reset logic,
// the sampler's dwell window, and the scaling experiments' warm-up.
func (l *Labels) CycleBudget() int { return 8*(int(l.K)+int(l.DiamBound)) + 24 }

// NodeLabels bundles the two trains' labels of one node.
type NodeLabels struct {
	Top    Labels
	Bottom Labels
}

// BitSize measures both label blocks.
func (nl *NodeLabels) BitSize() int { return nl.Top.BitSize() + nl.Bottom.BitSize() }

// Mark computes the train labels of every node from the partitions.
func Mark(p *partition.Partitions) []NodeLabels {
	t := p.H.Tree
	n := t.G.N()
	out := make([]NodeLabels, n)
	// Per-node piece counts, DFS prefix sums and subtree sums, rewritten
	// for each part (every node is in one part of each kind).
	cnt := make([]int, n)
	pos := make([]int, n)
	sub := make([]int, n)
	for pi := range p.Parts {
		part := &p.Parts[pi]
		of := p.BottomOf
		if part.Kind == partition.Top {
			of = p.TopOf
		}
		k := len(part.Frags)
		// Piece counts and PosStart in DFS order; SubCnt bottom-up.
		running := 0
		for i, v := range part.DFS {
			c := 0
			if 2*i < k {
				c++
			}
			if 2*i+1 < k {
				c++
			}
			cnt[v], pos[v] = c, running
			running += c
		}
		for i := len(part.DFS) - 1; i >= 0; i-- {
			v := part.DFS[i]
			sub[v] = cnt[v]
			for _, c := range t.Children(v) {
				if of[c] == pi {
					sub[v] += sub[c]
				}
			}
		}
		for _, v := range part.Nodes {
			var stored []hierarchy.Piece
			if part.Kind == partition.Top {
				stored = p.StoredTop[v]
			} else {
				stored = p.StoredBottom[v]
			}
			lab := Labels{
				PartRootID: t.G.ID(part.Root),
				PosStart:   int32(pos[v]),
				Cnt:        int32(cnt[v]),
				SubCnt:     int32(sub[v]),
				K:          int32(k),
				Depth:      int32(t.Depth(v) - t.Depth(part.Root)),
				DiamBound:  int32(part.Depth),
			}
			lab.SetStored(stored)
			if part.Kind == partition.Top {
				out[v].Top = lab
			} else {
				out[v].Bottom = lab
			}
		}
	}
	return out
}

// NeighbourLabels is the view of one tree neighbour's labels during the
// local label check.
type NeighbourLabels struct {
	IsParent bool
	IsChild  bool
	Port     int
	L        *NodeLabels
}

// CheckLabels performs the 1-proof verification of one node's train labels
// against its tree neighbours (the §8 "part diameter and piece count are
// O(log n)" checks plus the position-scheme consistency). n is the verified
// node count; ownID the node's identity; isTreeRoot from the SP scheme.
func CheckLabels(own *NodeLabels, ownID graph.NodeID, isTreeRoot bool, n int, nbs []NeighbourLabels) error {
	if err := checkOne(&own.Top, ownID, isTreeRoot, n, nbs, true); err != nil {
		return fmt.Errorf("top train: %w", err)
	}
	if err := checkOne(&own.Bottom, ownID, isTreeRoot, n, nbs, false); err != nil {
		return fmt.Errorf("bottom train: %w", err)
	}
	return nil
}

// LambdaThreshold returns λ(n) as a power of two: fragments of level ≥
// LevelSplit(n) are top, lower levels bottom; this is the delimiter of §8.
func LambdaThreshold(n int) int { return partition.LambdaFor(n) }

// LevelSplit returns log2 λ(n): the first top level. O(1), like
// LambdaThreshold — both sit on the verifier's per-neighbour hot path.
func LevelSplit(n int) int {
	return mbits.TrailingZeros(uint(LambdaThreshold(n)))
}

// AppendNeededLevels appends the level sets JTop(v) and JBottom(v) a node
// must see on each train, derived from its strings and the delimiter, to
// caller-provided slices (pass x[:0] to reuse capacity).
func AppendNeededLevels(topDst, bottomDst []int, s *hierarchy.Strings, n int) (topLevels, bottomLevels []int) {
	split := LevelSplit(n)
	for j := 0; j < s.Levels(); j++ {
		if !s.InFragmentAt(j) {
			continue
		}
		if j >= split {
			topDst = append(topDst, j)
		} else {
			bottomDst = append(bottomDst, j)
		}
	}
	return topDst, bottomDst
}

func checkOne(l *Labels, ownID graph.NodeID, isTreeRoot bool, n int, nbs []NeighbourLabels, top bool) error {
	lam := LambdaThreshold(n)
	split := LevelSplit(n)
	maxK := 4 * lam
	posStart, cnt, subCnt, k := int(l.PosStart), int(l.Cnt), int(l.SubCnt), int(l.K)
	depth, diam := int(l.Depth), int(l.DiamBound)
	stored := l.Stored()
	if k < 0 || k > maxK {
		return fmt.Errorf("K=%d outside [0,%d]", k, maxK)
	}
	if cnt != len(stored) { // a block stores at most 2
		return fmt.Errorf("Cnt=%d vs %d stored pieces", cnt, len(stored))
	}
	if subCnt < cnt || subCnt > k {
		return fmt.Errorf("SubCnt=%d outside [Cnt=%d, K=%d]", subCnt, cnt, k)
	}
	if posStart < 0 || posStart+subCnt > k {
		return fmt.Errorf("window [%d,%d) outside [0,%d)", posStart, posStart+subCnt, k)
	}
	if diam < 0 || diam > 6*lam {
		return fmt.Errorf("diam bound %d outside [0,%d]", diam, 6*lam)
	}
	if depth < 0 || depth > diam {
		return fmt.Errorf("depth %d exceeds bound %d", depth, diam)
	}
	// Stored pieces: level-sorted, on the correct side of the delimiter.
	ell := hierarchy.Ell(n)
	for i, p := range stored {
		if p.ID.Level < 0 || p.ID.Level > ell {
			return fmt.Errorf("stored piece level %d out of range", p.ID.Level)
		}
		if top && p.ID.Level < split {
			return fmt.Errorf("bottom-level piece %d in top train", p.ID.Level)
		}
		if !top && p.ID.Level >= split {
			return fmt.Errorf("top-level piece %d in bottom train", p.ID.Level)
		}
		if i > 0 && stored[i].ID.Level < stored[i-1].ID.Level {
			return fmt.Errorf("stored pieces not level-sorted")
		}
	}

	// Part structure relative to the tree parent.
	var parent *Labels
	for i := range nbs {
		if nbs[i].IsParent {
			parent = pick(nbs[i].L, top)
		}
	}
	isPartRoot := l.PartRootID == ownID
	if isTreeRoot && !isPartRoot {
		return fmt.Errorf("tree root not a part root")
	}
	if parent != nil {
		sameAsParent := parent.PartRootID == l.PartRootID
		if isPartRoot && sameAsParent {
			return fmt.Errorf("part root inside parent's part")
		}
		if !isPartRoot && !sameAsParent {
			return fmt.Errorf("non-root with a foreign parent part")
		}
		if sameAsParent {
			if depth != int(parent.Depth)+1 {
				return fmt.Errorf("depth %d, parent depth %d", depth, parent.Depth)
			}
			if l.DiamBound != parent.DiamBound {
				return fmt.Errorf("diam bound mismatch with parent")
			}
			if l.K != parent.K {
				return fmt.Errorf("K mismatch with parent")
			}
		}
	}
	if isPartRoot {
		if depth != 0 {
			return fmt.Errorf("part root depth %d", depth)
		}
		if posStart != 0 {
			return fmt.Errorf("part root PosStart %d", posStart)
		}
		if subCnt != k {
			return fmt.Errorf("part root SubCnt %d ≠ K %d", subCnt, k)
		}
	}
	// Children windows partition my window after my own pieces, in port
	// order (the DFS placement).
	running := posStart + cnt
	sum := cnt
	for i := range nbs {
		if !nbs[i].IsChild {
			continue
		}
		cl := pick(nbs[i].L, top)
		if cl == nil || cl.PartRootID != l.PartRootID {
			continue // child in a different part
		}
		if int(cl.PosStart) != running {
			return fmt.Errorf("child window starts at %d, want %d", cl.PosStart, running)
		}
		running += int(cl.SubCnt)
		sum += int(cl.SubCnt)
	}
	if sum != subCnt {
		return fmt.Errorf("SubCnt %d ≠ own+children %d", subCnt, sum)
	}
	return nil
}

func pick(nl *NodeLabels, top bool) *Labels {
	if nl == nil {
		return nil
	}
	if top {
		return &nl.Top
	}
	return &nl.Bottom
}
