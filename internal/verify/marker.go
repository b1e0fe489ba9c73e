// Package verify implements the paper's primary contribution: the
// self-stabilizing MST proof labeling scheme with O(log n) bits per node,
// O(log² n) synchronous detection time (O(Δ log³ n) asynchronous),
// O(f log n) detection distance and O(n) marker construction time
// (Theorem 8.5).
//
// The marker (this file) composes every label layer:
//
//	SP + NumK (§2.6)  →  tree structure and the node count
//	Roots/EndP/Parents/Or_EndP (§5)  →  hierarchy + candidate function
//	partition labels + DFS piece placement (§6)
//	train position labels (§7)
//
// The verifier (machine.go) runs, at every node in every round: the local
// 1-proof checks of all layers, the two trains, and the Ask/Show sampling
// protocol with the minimality checks C1/C2 and the tree-edge piece
// equality check (§8).
//
// # Incremental verification
//
// The paper's verification is local and repeatable: each round's verdict is
// a deterministic function of the neighbourhood's registers, so re-running
// a check on unchanged inputs cannot change its outcome. The implementation
// exploits this by splitting the step into a static layer — the label
// checks (SP/NumK, hierarchy strings, train position labels, neighbour
// presence), whose inputs change only under faults and label installation —
// and a dynamic layer (the trains and the Ask/Show sampler) that runs every
// round. The static verdict is memoized per node in VState and invalidated
// through the engine's dirty-epoch change tracking
// (runtime.View.MarkChanged / NeighbourhoodChangedSince): fault injection,
// SetState and the transformer's phase transitions all mark the node, so
// the memo is semantically transparent — Machine.FullRecheck disables it
// and the two configurations are bit-identical in every protocol-visible
// field. In a quiet network the verifier's round cost is proportional to
// change, not to n × (label size).
//
// The dynamic layer rides the same change clock. Alongside the static
// verdict, VState memoizes every label-derived quantity the per-round path
// would otherwise re-derive: the label portion of BitSize (re-measured by
// the engine's instrumentation at every node every round) and the candidate
// port of the level being asked about (captured with AskPiece once per
// dwell window, as protocol state). The claimed-level mask J(v) the sampler
// sweeps needs no memo: it is one load off the label block
// (hierarchy.Strings.Members). Labels are never copied by a step at all: each node's label block
// is immutable once marked and shared by reference between the marker's
// Labeled, both engine buffers and every header copy (VState.CopyFrom).
// A fault mutates a Clone — the one deep copy — and commits it through
// SetState. Invalidation is uniform: Clone and InvalidateMemo (called by
// the engine on SetState/Corrupt and by ApplyFault) drop every cache, so a
// quiet round performs close to zero redundant work per node while staying
// bit-identical to FullRecheck — including MaxStateBits.
package verify

import (
	"fmt"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/labeling"
	"ssmst/internal/partition"
	"ssmst/internal/syncmst"
	"ssmst/internal/train"
)

// NodeLabels is the complete per-node label block of the scheme. Its
// measured size is O(log n) bits (experiment E7). Every layer is stored at
// a fixed width, so a block is one value with no references: the marker
// keeps all blocks in one array, and copying a block copies its labels. A
// block is immutable once marked: verifier states share it by reference
// (VState.L), so to change a label, mutate a VState.Clone and commit it
// with SetState.
type NodeLabels struct {
	SP    labeling.SPLabel
	Size  labeling.SizeLabel
	HS    hierarchy.Strings
	Train train.NodeLabels
}

// BitSize measures the whole label block.
func (l *NodeLabels) BitSize() int {
	return l.SP.BitSize() + l.Size.BitSize() + l.HS.BitSize() + l.Train.BitSize()
}

// Clone returns a copy: the block holds no references, so a value copy is
// a deep one.
func (l *NodeLabels) Clone() *NodeLabels {
	c := *l
	return &c
}

// Labeled is a fully marked instance: the subject tree (the components) and
// every node's labels. The label blocks are immutable once marked: engines
// built on the instance install &Labels[v] by reference, so they stay
// reachable (and must stay unchanged) for as long as any such engine lives.
//
// H and Parts are by-products of marking — the hierarchy the strings were
// read from and the partitions the pieces were placed by — returned for the
// caller to inspect or drop. No runner keeps them: every runner holds the
// instance without them (WithoutScaffolding), so they are freed once the
// caller lets go of its *Labeled.
type Labeled struct {
	G      *graph.Graph
	Tree   *graph.Tree
	H      *hierarchy.Hierarchy
	Parts  *partition.Partitions
	Labels []NodeLabels
	// ConstructionTime is the simulated ideal time of the distributed
	// marker: the SYNC_MST run plus the multi-wave label assignment
	// (Corollary 6.11; O(n)).
	ConstructionTime int

	// version is G.Version() at marking: a graph mutated since then may
	// no longer match the labels (freshMST).
	version int64
}

// Mark runs the full marker on a graph: construct the MST with SYNC_MST,
// slice it into the hierarchy, build partitions, place pieces, and emit
// every label layer. A graph of fewer than 2 nodes is an error.
func Mark(g *graph.Graph) (*Labeled, error) {
	if err := checkMarkable(g); err != nil {
		return nil, err
	}
	res, err := syncmst.Simulate(g)
	if err != nil {
		return nil, fmt.Errorf("verify: construction: %w", err)
	}
	return markHierarchy(g, res.Tree, res.Hierarchy, res.Rounds)
}

// MarkTree labels an arbitrary spanning tree of g (not necessarily an MST):
// syncmst.SimulateTree runs SYNC_MST on g with every fragment merging over
// its minimum-weight outgoing tree edge, which is what an honest marker
// constrained to the given tree would produce, and roots the tree and
// builds the hierarchy once. Verification of the result must reject unless
// the tree is an MST. overrideOmega selects what the pieces claim as ω̂(F):
// the true minimum outgoing weight in G (false — C1 then catches non-MSTs)
// or the candidate's own weight (true — C2 then catches them). A graph of
// fewer than 2 nodes, a tree edge id outside [0, g.M()), an edge set that
// is not a spanning tree, or repeated weights on the tree are errors.
func MarkTree(g *graph.Graph, treeEdges []int, overrideOmega bool) (*Labeled, error) {
	if err := checkMarkable(g); err != nil {
		return nil, err
	}
	for _, e := range treeEdges {
		if e < 0 || e >= g.M() {
			return nil, fmt.Errorf("verify: tree edge id %d out of range [0, %d)", e, g.M())
		}
	}
	res, err := syncmst.SimulateTree(g, treeEdges)
	if err != nil {
		return nil, fmt.Errorf("verify: tree construction: %w", err)
	}
	h := res.Hierarchy
	if overrideOmega {
		for i := range h.Frags {
			if h.Frags[i].Cand >= 0 {
				h.Frags[i].MinOutW = g.Edge(h.Frags[i].Cand).W
			}
		}
	}
	return markHierarchy(g, res.Tree, h, res.Rounds)
}

// checkMarkable rejects graphs the scheme cannot label: the partition of §6
// needs a tree edge, and the verifier rejects a claimed n < 2 outright
// (AlarmSize).
func checkMarkable(g *graph.Graph) error {
	if g.N() < 2 {
		return fmt.Errorf("verify: marking needs at least 2 nodes (n=%d)", g.N())
	}
	return nil
}

func markHierarchy(g *graph.Graph, tree *graph.Tree, h *hierarchy.Hierarchy, rounds int) (*Labeled, error) {
	parts, err := partition.Compute(h)
	if err != nil {
		return nil, fmt.Errorf("verify: partitions: %w", err)
	}
	sp := labeling.MarkSP(tree)
	size := labeling.MarkSize(tree)
	ss := hierarchy.MarkStrings(h)
	tl := train.Mark(parts)
	labels := make([]NodeLabels, g.N())
	for v := 0; v < g.N(); v++ {
		labels[v] = NodeLabels{SP: sp[v], Size: size[v], HS: ss[v], Train: tl[v]}
	}
	return &Labeled{
		G:                g,
		Tree:             tree,
		H:                h,
		Parts:            parts,
		Labels:           labels,
		ConstructionTime: partition.MarkerTime(h, rounds, parts),
		version:          g.Version(),
	}, nil
}

// WithoutScaffolding returns a shallow copy of l with H and Parts cleared:
// the graph, tree, label blocks, construction time and marking version —
// everything the engines, the seed gate, the fault and churn planners and
// the campaign read — shared with l.
func (l *Labeled) WithoutScaffolding() *Labeled {
	c := *l
	c.H, c.Parts = nil, nil
	return &c
}

// NodeState returns node v's verifier state in the marked instance: its
// identity, its parent port on the marked tree (-1 at the root) and its
// label block, shared by reference.
func (l *Labeled) NodeState(v int) *VState {
	pp := -1
	if p := l.Tree.Parent[v]; p >= 0 {
		pp = l.G.PortTo(v, p)
	}
	return &VState{MyID: l.G.ID(v), ParentPort: int32(pp), L: &l.Labels[v]}
}

// MaxLabelBits returns the largest label block over all nodes.
func (l *Labeled) MaxLabelBits() int {
	max := 0
	for v := range l.Labels {
		if b := l.Labels[v].BitSize(); b > max {
			max = b
		}
	}
	return max
}
