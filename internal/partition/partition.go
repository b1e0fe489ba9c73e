// Package partition implements §6 of the paper: the two node partitions Top
// and Bottom over which the pieces of information I(F) are distributed, and
// the DFS placement of pieces that initializes the trains of §7.
//
// Construction pipeline (on a correct instance, by the marker):
//
//  1. Fragments with ≥ λ nodes (λ ≈ log n) are "top"; they form a subtree
//     T_Top of the hierarchy-tree. Leaves of T_Top are red; internal top
//     fragments are large; bottom fragments whose hierarchy parent is large
//     are blue. Red and blue fragments partition the nodes (Observation 6.1
//     — partition P′).
//  2. Procedure Merge coarsens P′ to P′′: each blue fragment is merged into
//     a touching part inside its large parent, processing large fragments
//     bottom-up, so each P′′ part contains exactly one red fragment and
//     intersects at most one top fragment per level (Claim 6.3).
//  3. Each P′′ part is split into parts of size ≥ λ and diameter O(λ):
//     partition Top (Lemma 6.4).
//  4. Partition Bottom consists of the maximal bottom fragments: blue
//     fragments plus hierarchy children of red fragments (Lemma 6.5).
//  5. Each Top part stores the pieces I(F) of the ancestors of its red
//     fragment; each Bottom part stores the pieces of the bottom fragments
//     it contains — pairs of pieces placed on the part's nodes in DFS
//     order (§6.2), at most one pair per node per partition.
package partition

import (
	"fmt"
	mbits "math/bits"
	"sort"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

// Kind distinguishes the two partitions.
type Kind int

// The two partitions of §6.1.
const (
	Top Kind = iota + 1
	Bottom
)

func (k Kind) String() string {
	if k == Top {
		return "top"
	}
	return "bottom"
}

// Part is one part of one of the two partitions: a connected subtree of T.
type Part struct {
	Index int
	Kind  Kind
	Root  int   // highest node of the part
	Nodes []int // sorted node indices
	// Frags lists the fragments whose pieces this part stores, sorted by
	// increasing level (the cyclic order of the train).
	Frags []int
	// DFS is the part-local DFS order starting at Root (piece placement).
	DFS []int
	// Depth is the maximum distance from Root within the part.
	Depth int
}

// Size returns the number of nodes in the part.
func (p *Part) Size() int { return len(p.Nodes) }

// Partitions is the complete §6 structure for one hierarchy.
type Partitions struct {
	H      *hierarchy.Hierarchy
	Lambda int // the size threshold λ

	Parts    []Part
	TopOf    []int // TopOf[v] = index into Parts of v's Top part
	BottomOf []int

	// Stored[v] lists the pieces node v keeps permanently, at most one pair
	// (two pieces) per partition, ordered Top pair then Bottom pair.
	StoredTop    [][]hierarchy.Piece
	StoredBottom [][]hierarchy.Piece

	// Fragment coloring, exported for tests and experiments.
	IsTopFrag []bool
	Red       []bool
	Blue      []bool
	Large     []bool
}

// LambdaFor returns the size threshold λ separating top from bottom
// fragments: the smallest power of two ≥ max(2, ⌈log₂ n⌉). Using a power of
// two (a constant factor above the paper's "log n") makes the top/bottom
// split coincide exactly with a fragment-level boundary — fragments of
// level ≥ log₂ λ are top, lower levels bottom — which is the delimiter the
// verifier uses to route levels between the two trains (§8).
// It is O(1): the verifier's hot paths (train membership, the sampler's
// top/bottom routing) evaluate it per neighbour per round.
func LambdaFor(n int) int {
	if n <= 1 {
		return 2
	}
	l := mbits.Len(uint(n - 1)) // ⌈log₂ n⌉
	if l < 2 {
		l = 2
	}
	return 1 << mbits.Len(uint(l-1)) // smallest power of two ≥ l (l ≥ 2)
}

// Compute builds both partitions and the piece placement for a validated
// hierarchy.
func Compute(h *hierarchy.Hierarchy) (*Partitions, error) {
	t := h.Tree
	n := t.G.N()
	p := &Partitions{
		H:            h,
		Lambda:       LambdaFor(n),
		TopOf:        make([]int, n),
		BottomOf:     make([]int, n),
		StoredTop:    make([][]hierarchy.Piece, n),
		StoredBottom: make([][]hierarchy.Piece, n),
	}
	for v := 0; v < n; v++ {
		p.TopOf[v] = -1
		p.BottomOf[v] = -1
	}
	p.colorFragments()
	pp, partOf, err := p.mergeBlues()
	if err != nil {
		return nil, err
	}
	if err := p.splitTopParts(pp, partOf); err != nil {
		return nil, err
	}
	if err := p.buildBottomParts(); err != nil {
		return nil, err
	}
	if err := p.placePieces(); err != nil {
		return nil, err
	}
	return p, nil
}

// colorFragments classifies fragments as top/bottom and red/blue/large.
func (p *Partitions) colorFragments() {
	h := p.H
	nf := len(h.Frags)
	p.IsTopFrag = make([]bool, nf)
	p.Red = make([]bool, nf)
	p.Blue = make([]bool, nf)
	p.Large = make([]bool, nf)
	for i := range h.Frags {
		p.IsTopFrag[i] = h.Frags[i].Size() >= p.Lambda
	}
	for i := range h.Frags {
		if !p.IsTopFrag[i] {
			continue
		}
		hasTopChild := false
		for _, c := range h.Frags[i].Children {
			if p.IsTopFrag[c] {
				hasTopChild = true
				break
			}
		}
		if hasTopChild {
			p.Large[i] = true
		} else {
			p.Red[i] = true
		}
	}
	for i := range h.Frags {
		if p.IsTopFrag[i] {
			continue
		}
		if par := h.Frags[i].Parent; par >= 0 && p.Large[par] {
			p.Blue[i] = true
		}
	}
}

// p2Part is a P′′ part under construction: a red fragment plus merged blues.
type p2Part struct {
	red   int
	nodes []int
}

// mergeBlues runs Procedure Merge: large fragments in increasing size order;
// every blue child merges into a touching part inside the large parent. It
// returns the P′′ parts and partOf[v], the index of v's part.
func (p *Partitions) mergeBlues() ([]*p2Part, []int, error) {
	h := p.H
	t := h.Tree
	n := t.G.N()
	partOf := make([]int, n)
	for v := range partOf {
		partOf[v] = -1
	}
	var parts []*p2Part
	for i := range h.Frags {
		if !p.Red[i] {
			continue
		}
		pi := len(parts)
		parts = append(parts, &p2Part{red: i, nodes: append([]int(nil), h.Frags[i].Nodes...)})
		for _, v := range h.Frags[i].Nodes {
			partOf[v] = pi
		}
	}
	// Large fragments bottom-up (by size): by then all nodes of top
	// children are assigned; merge this large fragment's blue children.
	larges := make([]int, 0)
	for i := range h.Frags {
		if p.Large[i] {
			larges = append(larges, i)
		}
	}
	sort.Slice(larges, func(a, b int) bool {
		return h.Frags[larges[a]].Size() < h.Frags[larges[b]].Size()
	})
	for _, li := range larges {
		blues := make([]int, 0)
		for _, c := range h.Frags[li].Children {
			if p.Blue[c] {
				blues = append(blues, c)
			}
		}
		// Iterate to fixpoint: a blue with a tree edge to an assigned node
		// inside this large fragment merges into that node's part.
		level := h.Frags[li].Level
		for len(blues) > 0 {
			progressed := false
			rest := blues[:0]
			for _, b := range blues {
				target := -1
				for _, v := range h.Frags[b].Nodes {
					for _, half := range t.G.Ports(v) {
						u := half.Peer
						if h.FragAt(u, level) == li && partOf[u] >= 0 && (t.Parent[v] == u || t.Parent[u] == v) {
							target = partOf[u]
							break
						}
					}
					if target >= 0 {
						break
					}
				}
				if target < 0 {
					rest = append(rest, b)
					continue
				}
				progressed = true
				for _, v := range h.Frags[b].Nodes {
					partOf[v] = target
					parts[target].nodes = append(parts[target].nodes, v)
				}
			}
			blues = rest
			if !progressed && len(blues) > 0 {
				return nil, nil, fmt.Errorf("partition: %d blue fragments unreachable in large fragment %d", len(blues), li)
			}
		}
	}
	for v := 0; v < n; v++ {
		if partOf[v] < 0 {
			return nil, nil, fmt.Errorf("partition: node %d not covered by P''", v)
		}
	}
	return parts, partOf, nil
}

// splitTopParts splits each P′′ part into connected subtrees of size ≥ λ
// and depth ≤ 2λ, then records them as partition Top. The split cuts a
// subtree whenever its residual size reaches λ; the leftover containing the
// part root (size < λ) is merged into one of the pieces below it.
func (p *Partitions) splitTopParts(pp []*p2Part, partOf []int) error {
	t := p.H.Tree
	n := t.G.N()
	// Per-node split state; each node is in exactly one P′′ part.
	cut := make([]bool, n)
	res := make([]int, n)
	pieceOf := make([]int, n)
	for pi, part := range pp {
		root := highestNode(t, part.nodes)
		for _, v := range part.nodes {
			if v != root && partOf[t.Parent[v]] != pi {
				return fmt.Errorf("partition: P'' part not a subtree at node %d", v)
			}
		}
		// Bottom-up residual split (reverse DFS order of the part): cut a
		// node when its residual subtree size reaches λ.
		order := partDFS(t, root, partOf, pi)
		numCuts := 0
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			r := 1
			for _, c := range t.Children(v) {
				if partOf[c] == pi && !cut[c] {
					r += res[c]
				}
			}
			if r >= p.Lambda && v != root {
				cut[v] = true
				numCuts++
			} else {
				res[v] = r
			}
		}
		if numCuts == 0 {
			// Whole P′′ part is one Top part.
			p.emitPart(Top, append([]int(nil), part.nodes...), part.red)
			continue
		}
		// Assign pieces in preorder: cut nodes open a new piece, everyone
		// else inherits the parent's piece; the leftover around the part
		// root (marked -1) merges with the piece of the shallowest cut node
		// below it (which is tree-adjacent to the leftover).
		const leftover = -1
		var pieceID int
		mergeTarget := -1
		for _, v := range order {
			switch {
			case v == root:
				pieceOf[v] = leftover
			case cut[v]:
				pieceOf[v] = pieceID
				pieceID++
				if mergeTarget < 0 && pieceOf[t.Parent[v]] == leftover {
					mergeTarget = pieceOf[v]
				}
			default:
				pieceOf[v] = pieceOf[t.Parent[v]]
			}
		}
		nodesOf := make([][]int, pieceID)
		for _, v := range order {
			pc := pieceOf[v]
			if pc == leftover {
				pc = mergeTarget
			}
			nodesOf[pc] = append(nodesOf[pc], v)
		}
		for pc := range nodesOf {
			if len(nodesOf[pc]) > 0 {
				p.emitPart(Top, nodesOf[pc], part.red)
			}
		}
	}
	return nil
}

// buildBottomParts emits partition Bottom: the maximal bottom fragments
// (blue fragments and hierarchy children of red fragments).
func (p *Partitions) buildBottomParts() error {
	h := p.H
	for i := range h.Frags {
		isGreen := false
		if par := h.Frags[i].Parent; par >= 0 && p.Red[par] && !p.IsTopFrag[i] {
			isGreen = true
		}
		if p.Blue[i] || isGreen {
			p.emitPart(Bottom, append([]int(nil), h.Frags[i].Nodes...), i)
		}
	}
	// Coverage check.
	for v := range p.BottomOf {
		if p.BottomOf[v] < 0 {
			return fmt.Errorf("partition: node %d not covered by Bottom", v)
		}
		if p.TopOf[v] < 0 {
			return fmt.Errorf("partition: node %d not covered by Top", v)
		}
	}
	return nil
}

// emitPart registers a part, computing root, DFS order, depth and the
// fragment list whose pieces it stores. For Top parts, anchor is the red
// fragment of the originating P′′ part; for Bottom parts it is the part's
// own fragment.
func (p *Partitions) emitPart(kind Kind, nodes []int, anchor int) {
	t := p.H.Tree
	sort.Ints(nodes)
	index, of := len(p.Parts), p.BottomOf
	if kind == Top {
		of = p.TopOf
	}
	for _, v := range nodes {
		of[v] = index
	}
	root := highestNode(t, nodes)
	dfs := partDFS(t, root, of, index)
	depth := 0
	for _, v := range dfs {
		depth = max(depth, t.Depth(v)-t.Depth(root))
	}
	p.Parts = append(p.Parts, Part{
		Index: index,
		Kind:  kind,
		Root:  root,
		Nodes: nodes,
		Frags: p.fragsFor(kind, anchor),
		DFS:   dfs,
		Depth: depth,
	})
}

// fragsFor lists the fragments whose pieces a part stores, in increasing
// level order: ancestors of the red fragment (inclusive) for Top parts;
// contained bottom fragments for Bottom parts.
func (p *Partitions) fragsFor(kind Kind, anchor int) []int {
	h := p.H
	var out []int
	if kind == Top {
		for f := anchor; f >= 0; f = h.Frags[f].Parent {
			out = append(out, f)
		}
	} else {
		var rec func(f int)
		rec = func(f int) {
			out = append(out, f)
			for _, c := range h.Frags[f].Children {
				rec(c)
			}
		}
		rec(anchor)
	}
	sort.Slice(out, func(a, b int) bool {
		la, lb := h.Frags[out[a]].Level, h.Frags[out[b]].Level
		if la != lb {
			return la < lb
		}
		return out[a] < out[b]
	})
	return out
}

// placePieces stores the pairs Pc(i) at the parts' DFS-order nodes (§6.2).
func (p *Partitions) placePieces() error {
	for pi := range p.Parts {
		part := &p.Parts[pi]
		k := len(part.Frags)
		pairs := (k + 1) / 2
		if pairs > part.Size() {
			return fmt.Errorf("partition: %s part %d has %d pieces for %d nodes",
				part.Kind, pi, k, part.Size())
		}
		for i := 0; i < pairs; i++ {
			v := part.DFS[i]
			var pair []hierarchy.Piece
			pair = append(pair, p.H.Piece(part.Frags[2*i]))
			if 2*i+1 < k {
				pair = append(pair, p.H.Piece(part.Frags[2*i+1]))
			}
			if part.Kind == Top {
				p.StoredTop[v] = pair
			} else {
				p.StoredBottom[v] = pair
			}
		}
	}
	return nil
}

// highestNode returns the node of minimum tree depth in the set.
func highestNode(t *graph.Tree, nodes []int) int {
	best := nodes[0]
	for _, v := range nodes[1:] {
		if t.Depth(v) < t.Depth(best) {
			best = v
		}
	}
	return best
}

// partDFS returns the DFS preorder of the subtree induced by the nodes v
// with of[v] == part, starting at root and descending in port order
// (matching the distributed DFS of §6.3.6).
func partDFS(t *graph.Tree, root int, of []int, part int) []int {
	var out []int
	var rec func(v int)
	rec = func(v int) {
		out = append(out, v)
		for _, c := range t.Children(v) {
			if of[c] == part {
				rec(c)
			}
		}
	}
	rec(root)
	return out
}
