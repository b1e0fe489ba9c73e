// Package hierarchy implements the fragment-hierarchy machinery of §5 of the
// paper: laminar families of fragments over a rooted spanning tree, levels,
// candidate functions (Definition 5.2), the distributed representation via
// the per-node strings Roots/EndP/Parents/Or_EndP (the object the verifier
// reasons about) and their legality conditions RS0–RS5 and EPS0–EPS5. The
// package tests reconstruct a hierarchy from legal strings to show the
// representation round-trips.
//
// Levels follow the semantics of the worked example (Figure 1/Table 2) and
// of SYNC_MST (§4): the level of an active fragment F is the phase at which
// it was active, which by Lemma 4.1 equals ⌊log₂|F|⌋. Nodes may therefore
// skip levels, encoded as '*' entries in the strings.
package hierarchy

import (
	"fmt"
	"math"
	mbits "math/bits"
	"sort"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
)

// Fragment is one node of the hierarchy-tree: a connected subtree of T.
type Fragment struct {
	Index    int   // position in Hierarchy.Frags
	Nodes    []int // sorted node indices of the fragment
	Root     int   // the node of the fragment closest to the root of T
	Level    int   // activation phase = ⌊log₂|Nodes|⌋
	Parent   int   // parent fragment index, -1 for the whole tree T
	Children []int // child fragment indices

	// Cand is the candidate (selected outgoing) edge χ(F): the graph edge
	// over which F merged; -1 for T. For a correct instance this is F's
	// minimum outgoing edge.
	Cand int
	// CandInside is the endpoint of Cand inside F (-1 for T).
	CandInside int
	// MinOutW is ω(F), the weight of F's minimum outgoing edge; for T it is
	// the sentinel NoOutWeight.
	MinOutW graph.Weight
}

// NoOutWeight is the ω value carried for the whole tree T, which has no
// outgoing edge.
const NoOutWeight graph.Weight = math.MaxInt64

// Size returns the number of nodes in the fragment.
func (f *Fragment) Size() int { return len(f.Nodes) }

// IsSingleton reports whether the fragment is a single node.
func (f *Fragment) IsSingleton() bool { return len(f.Nodes) == 1 }

// Hierarchy is a laminar family of fragments over a rooted spanning tree,
// organized as a hierarchy-tree (§5, Definition 5.1) with a candidate
// function (Definition 5.2).
type Hierarchy struct {
	Tree  *graph.Tree
	Frags []Fragment
	// TopIndex is the index of the fragment equal to the whole tree T.
	TopIndex int

	// fragAt[v*stride+j] = index of the level-j fragment containing v, or
	// -1; stride = ℓ+1.
	fragAt []int32
	stride int
}

// Ell returns ℓ, the level of the whole-tree fragment.
func (h *Hierarchy) Ell() int { return h.Frags[h.TopIndex].Level }

// Ell returns ℓ = ⌊log₂ n⌋ for a claimed node count n (0 for n ≤ 1): the
// top level of SYNC_MST's hierarchy (Lemma 4.1), so strings have ℓ+1
// entries. It is the one place the level count is derived from n.
func Ell(n int) int {
	if n < 2 {
		return 0
	}
	return mbits.Len(uint(n)) - 1
}

// FragAt returns the index of the level-j fragment containing node v, or -1
// if v belongs to no level-j fragment.
func (h *Hierarchy) FragAt(v, j int) int {
	if j < 0 || j >= h.stride {
		return -1
	}
	return int(h.fragAt[v*h.stride+j])
}

// FragmentID is the paper's unique fragment identifier (§6): the identity of
// the fragment's root combined with its level.
type FragmentID struct {
	RootID graph.NodeID
	Level  int
}

// ID returns the identifier of fragment f.
func (h *Hierarchy) ID(f int) FragmentID {
	fr := &h.Frags[f]
	return FragmentID{RootID: h.Tree.G.ID(fr.Root), Level: fr.Level}
}

// Piece is I(F) = ID(F) ∘ ω(F), the O(log n)-bit piece of information each
// node needs per fragment containing it (§6).
type Piece struct {
	ID FragmentID
	W  graph.Weight // weight of F's claimed minimum outgoing edge
}

// BitSize returns the encoded width of the piece: the root identity, the
// level, and ω (one bit for the NoOutWeight sentinel of T). It is the one
// piece width every label and register holding a piece is charged.
func (p Piece) BitSize() int {
	w := 1
	if p.W != NoOutWeight {
		w = bits.ForInt(int64(p.W))
	}
	return bits.ForInt(int64(p.ID.RootID)) + bits.ForInt(int64(p.ID.Level)) + w
}

// Piece returns I(F) for fragment index f.
func (h *Hierarchy) Piece(f int) Piece {
	return Piece{ID: h.ID(f), W: h.Frags[f].MinOutW}
}

// RawFragment is the input format for Build: the construction algorithm
// reports each active fragment with its node set and candidate edge; Build
// derives levels, roots, the laminar tree and validates everything.
type RawFragment struct {
	Nodes []int // node indices (any order)
	Cand  int   // candidate edge in G, -1 only for the whole tree
}

// Build assembles and validates a Hierarchy from the active fragments of a
// construction run. The raw list must contain every singleton, the whole
// tree, and be laminar. Candidate edges must be tree edges that leave their
// fragment, and parents must be exactly the union of their children plus
// the children's candidate edges (Definition 5.2).
func Build(t *graph.Tree, raws []RawFragment) (*Hierarchy, error) {
	n := t.G.N()
	h := &Hierarchy{Tree: t}
	h.Frags = make([]Fragment, len(raws))

	// Normalize fragments: sort node sets, compute levels and roots.
	for i, raw := range raws {
		if len(raw.Nodes) == 0 {
			return nil, fmt.Errorf("hierarchy: fragment %d empty", i)
		}
		nodes := append([]int(nil), raw.Nodes...)
		sort.Ints(nodes)
		for k := 1; k < len(nodes); k++ {
			if nodes[k] == nodes[k-1] {
				return nil, fmt.Errorf("hierarchy: fragment %d repeats node %d", i, nodes[k])
			}
		}
		level := 0
		for 1<<(level+1) <= len(nodes) {
			level++
		}
		root := nodes[0]
		for _, v := range nodes[1:] {
			if t.Depth(v) < t.Depth(root) {
				root = v
			}
		}
		h.Frags[i] = Fragment{
			Index:  i,
			Nodes:  nodes,
			Root:   root,
			Level:  level,
			Parent: -1,
			Cand:   raw.Cand,
		}
	}

	// Identify the whole-tree fragment.
	h.TopIndex = -1
	for i := range h.Frags {
		if h.Frags[i].Size() == n {
			if h.TopIndex >= 0 {
				return nil, fmt.Errorf("hierarchy: two whole-tree fragments")
			}
			h.TopIndex = i
		}
	}
	if h.TopIndex < 0 {
		return nil, fmt.Errorf("hierarchy: no whole-tree fragment")
	}
	if h.Frags[h.TopIndex].Cand != -1 {
		return nil, fmt.Errorf("hierarchy: whole tree has a candidate edge")
	}

	// Check that all singletons are present and build fragAt (which also
	// proves per-level disjointness).
	ell := h.Frags[h.TopIndex].Level
	h.stride = ell + 1
	h.fragAt = make([]int32, n*h.stride)
	for i := range h.fragAt {
		h.fragAt[i] = -1
	}
	singleton := make([]bool, n)
	for i := range h.Frags {
		f := &h.Frags[i]
		if f.Level > ell {
			return nil, fmt.Errorf("hierarchy: fragment %d level %d above ℓ=%d", i, f.Level, ell)
		}
		if f.IsSingleton() {
			singleton[f.Nodes[0]] = true
		}
		for _, v := range f.Nodes {
			at := &h.fragAt[v*h.stride+f.Level]
			if *at >= 0 {
				return nil, fmt.Errorf("hierarchy: node %d in two level-%d fragments (%d, %d)", v, f.Level, *at, i)
			}
			*at = int32(i)
		}
	}
	for v := 0; v < n; v++ {
		if !singleton[v] {
			return nil, fmt.Errorf("hierarchy: node %d has no singleton fragment", v)
		}
	}

	// Laminarity + hierarchy-tree: the parent of F is the smallest fragment
	// strictly containing F. Sorting by size makes parents appear after
	// children in the scan.
	bySize := make([]int, len(h.Frags))
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool {
		if h.Frags[bySize[a]].Size() != h.Frags[bySize[b]].Size() {
			return h.Frags[bySize[a]].Size() < h.Frags[bySize[b]].Size()
		}
		return bySize[a] < bySize[b]
	})
	// smallestCover[v] = index of smallest processed fragment containing v.
	for _, i := range bySize {
		f := &h.Frags[i]
		if i == h.TopIndex {
			continue
		}
		// The parent is the smallest strictly larger fragment containing
		// f.Root; laminarity demands it contains all of f.
		parent := -1
		for j := f.Level; j <= ell; j++ {
			cand := h.FragAt(f.Root, j)
			if cand >= 0 && cand != i && h.Frags[cand].Size() > f.Size() {
				if parent < 0 || h.Frags[cand].Size() < h.Frags[parent].Size() {
					parent = cand
				}
			}
		}
		if parent < 0 {
			return nil, fmt.Errorf("hierarchy: fragment %d has no parent", i)
		}
		for _, v := range f.Nodes {
			if !h.contains(parent, v) {
				return nil, fmt.Errorf("hierarchy: fragments %d and %d violate laminarity", parent, i)
			}
		}
		f.Parent = parent
		h.Frags[parent].Children = append(h.Frags[parent].Children, i)
	}

	if err := h.validateCandidates(); err != nil {
		return nil, err
	}
	h.computeMinOutWeights()
	return h, nil
}

// contains reports whether node v belongs to fragment f.
func (h *Hierarchy) contains(f, v int) bool {
	return int(h.fragAt[v*h.stride+h.Frags[f].Level]) == f
}

// validateCandidates checks Definition 5.2: every non-T fragment has a
// candidate tree edge with exactly one endpoint inside, and each fragment's
// edge set is the union of its children's edges and candidates.
func (h *Hierarchy) validateCandidates() error {
	t := h.Tree
	for i := range h.Frags {
		f := &h.Frags[i]
		if i == h.TopIndex {
			f.CandInside = -1
			continue
		}
		if f.Cand < 0 || f.Cand >= t.G.M() {
			return fmt.Errorf("hierarchy: fragment %d candidate %d out of range", i, f.Cand)
		}
		e := t.G.Edge(f.Cand)
		inU, inV := h.contains(i, e.U), h.contains(i, e.V)
		if inU == inV {
			return fmt.Errorf("hierarchy: fragment %d candidate %d not outgoing", i, f.Cand)
		}
		if inU {
			f.CandInside = e.U
		} else {
			f.CandInside = e.V
		}
		// Candidate must be a tree edge.
		if t.ParentEdge[e.U] != f.Cand && t.ParentEdge[e.V] != f.Cand {
			return fmt.Errorf("hierarchy: fragment %d candidate %d is not a tree edge", i, f.Cand)
		}
	}
	// E(F) = {χ(F') : F' ∈ H(F)}: check per fragment by edge counting —
	// a fragment on k nodes has k-1 tree edges; its strict descendants'
	// distinct candidates must be exactly those edges. seenBy[e] is the
	// last fragment whose walk counted candidate e.
	seenBy := make([]int, t.G.M())
	for e := range seenBy {
		seenBy[e] = -1
	}
	var stack []int
	for i := range h.Frags {
		f := &h.Frags[i]
		if f.IsSingleton() {
			continue
		}
		distinct, leaving := 0, -1
		stack = append(stack[:0], f.Children...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], h.Frags[c].Children...)
			e := h.Frags[c].Cand
			if seenBy[e] == i {
				continue
			}
			seenBy[e] = i
			distinct++
			if ed := t.G.Edge(e); leaving < 0 && (!h.contains(i, ed.U) || !h.contains(i, ed.V)) {
				leaving = e
			}
		}
		if distinct != f.Size()-1 {
			return fmt.Errorf("hierarchy: fragment %d has %d nodes but %d descendant candidates", i, f.Size(), distinct)
		}
		if leaving >= 0 {
			return fmt.Errorf("hierarchy: fragment %d: descendant candidate %d leaves the fragment", i, leaving)
		}
	}
	return nil
}

// computeMinOutWeights fills MinOutW with the true minimum outgoing edge
// weight of every fragment (ω(F)); NoOutWeight for T.
func (h *Hierarchy) computeMinOutWeights() {
	g := h.Tree.G
	for i := range h.Frags {
		f := &h.Frags[i]
		if i == h.TopIndex {
			f.MinOutW = NoOutWeight
			continue
		}
		best := NoOutWeight
		for _, v := range f.Nodes {
			for _, half := range g.Ports(v) {
				if !h.contains(i, half.Peer) {
					if w := g.Edge(half.Edge).W; w < best {
						best = w
					}
				}
			}
		}
		f.MinOutW = best
	}
}

// CheckMinimality verifies property P2 (§3.2): the candidate edge of every
// fragment is its minimum outgoing edge (under raw distinct weights).
// Together with well-forming (which Build validates) this implies the tree
// is an MST (Lemma 5.1).
func (h *Hierarchy) CheckMinimality() error {
	g := h.Tree.G
	for i := range h.Frags {
		f := &h.Frags[i]
		if i == h.TopIndex {
			continue
		}
		if w := g.Edge(f.Cand).W; w != f.MinOutW {
			return fmt.Errorf("hierarchy: fragment %d candidate weight %d ≠ min outgoing %d", i, w, f.MinOutW)
		}
	}
	return nil
}
