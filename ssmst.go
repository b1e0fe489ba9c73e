// Package ssmst is a from-scratch Go reproduction of Korman, Kutten and
// Masuzawa, "Fast and compact self-stabilizing verification, computation,
// and fault detection of an MST" (PODC 2011 / Distributed Computing 2015).
//
// It provides:
//
//   - SYNC_MST (§4): a synchronous O(n)-time, O(log n)-bit distributed MST
//     construction (ConstructMST).
//   - The O(log n)-bit MST proof labeling scheme with O(log² n) synchronous
//     detection time (Mark / NewVerifier) — the paper's primary result.
//   - The self-stabilizing MST construction with O(log n) bits and O(n)
//     stabilization time (NewSelfStabilizing) — the second main result.
//
// See internal/runtime/DESIGN.md for the system inventory and README.md for
// the measured reproduction of the paper's tables and figures.
package ssmst

import (
	"errors"
	"fmt"
	"sort"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// Engine is the double-buffered stepping engine that executes register
// protocols (runners expose theirs as Eng). Tuning knobs: Parallel enables
// worker-pool fan-out for synchronous rounds; with Workers = 0 it engages
// for rounds of at least a few hundred nodes on a multi-core process, and
// Workers = k > 0 fans out every round of at least 2 nodes over up to k
// pool workers on any core count (k = 1 steps serially). Parallel stepping
// is bit-identical to serial stepping.
type Engine = runtime.Engine

// Graph is an undirected edge-weighted network with unique node identities
// and per-node port numbering (§2.1).
type Graph = graph.Graph

// Labeled is a fully marked instance: the spanning tree under verification
// plus every node's O(log n)-bit proof labels. Its H and Parts fields are
// by-products of marking, kept for the caller to inspect; a Verifier does
// not keep them, so they are freed once the caller drops its Labeled.
type Labeled = verify.Labeled

// Verifier drives the distributed verification scheme over a simulated
// network, with fault injection and detection measurement.
type Verifier = verify.Runner

// VState is one node's full verifier state — registers plus proof labels —
// as passed to the mutator of Verifier.Inject for fault injection.
type VState = verify.VState

// SelfStabilizing drives the self-stabilizing MST construction.
type SelfStabilizing = selfstab.Runner

// Mode selects the network model for verification.
type Mode = verify.Mode

// The two network models of the paper (§2.1).
const (
	Sync  = verify.Sync
	Async = verify.Async
)

// RandomGraph generates a connected random graph with n nodes, m edges,
// scrambled unique identities and distinct weights.
func RandomGraph(n, m int, seed int64) *Graph {
	return graph.RandomConnected(n, m, seed)
}

// ConstructMST runs SYNC_MST (§4) and returns the MST edges and the
// synchronous round count (O(n)).
func ConstructMST(g *Graph) (edges []int, rounds int, err error) {
	res, err := syncmst.Simulate(g)
	if err != nil {
		return nil, 0, err
	}
	return res.Tree.EdgeSet(), res.Rounds, nil
}

// Mark runs the full marker (§5–6): construct the MST and assign every
// label layer. The construction time field reports the simulated O(n)
// distributed marker time.
func Mark(g *Graph) (*Labeled, error) { return verify.Mark(g) }

// MarkTree labels an arbitrary spanning tree (not necessarily minimal);
// verification rejects unless it is an MST. A tree edge id outside
// [0, g.M()) is an error naming the first such id.
func MarkTree(g *Graph, treeEdges []int) (*Labeled, error) {
	return verify.MarkTree(g, treeEdges, false)
}

// NewVerifier builds a verification run over the labeled instance. Rounds
// recycle each node's two-rounds-old state, allocating nothing, and
// re-check the static label layers incrementally: their memoized per-node
// verdict is replayed until the engine's change tracking reports a
// neighbourhood label change, so a quiet round costs the dynamic
// train/sampler work plus one O(Δ) change probe rather than the full label
// check. A nil l panics.
func NewVerifier(l *Labeled, mode Mode, seed int64) *Verifier {
	return verify.NewRunner(l, mode, seed)
}

// NewVerifierWorklist is NewVerifier (Sync only) with the coasting regime
// on the engine's sparse worklist stepping mode. Nodes whose neighbourhood
// certifies quiet — static verdict memo-valid, trains at rest, sampler
// sweep starved for a full horizon — freeze into pure per-node clockwork,
// and any label change melts the frozen region back awake at one hop per
// round. Each round steps only the active frontier — nodes whose 1-hop
// neighbourhood changed — and replays every skipped node's clocks
// algebraically on demand, so a quiet certified network costs
// O(active + Δ) per round instead of Θ(n) (measured flat in n: ~5 ns/round
// at n=65536). A freshly marked MST instance whose graph has not changed
// since marking starts frozen — the configuration a quiet network settles
// into is installed at construction, so there is no settle — and every
// other instance starts awake. Verdicts, detection rounds, alarm traces
// and MaxStateBits are bit-identical to dense coast stepping from the same
// start.
func NewVerifierWorklist(l *Labeled, seed int64) *Verifier {
	return verify.NewWorklistRunner(l, seed)
}

// NewSelfStabilizing builds a self-stabilizing MST run; bound is the
// polynomial upper bound on n assumed by the reset substrate. Rounds
// recycle each node's two-rounds-old state and allocate nothing within a
// phase. The transformer never stabilizes on a graph of fewer than 2 nodes
// (the label phase cannot mark it), on a disconnected graph (it has no
// spanning tree) or on repeated weights (its MST is not unique; normalize
// first), and a bound below g.N() breaks the substrate's timing: all are
// errors.
func NewSelfStabilizing(g *Graph, bound int, mode Mode, seed int64) (*SelfStabilizing, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("ssmst: NewSelfStabilizing: the transformer needs at least 2 nodes (n=%d)", g.N())
	}
	if !g.Connected() {
		return nil, errors.New("ssmst: NewSelfStabilizing: graph is disconnected; it has no spanning tree")
	}
	if !g.HasDistinctWeights() {
		return nil, errors.New("ssmst: NewSelfStabilizing: weights must be distinct (normalize first)")
	}
	if bound < g.N() {
		return nil, fmt.Errorf("ssmst: NewSelfStabilizing: bound %d is below n=%d", bound, g.N())
	}
	return selfstab.NewRunner(g, bound, mode, seed), nil
}

// ChurnKind selects a topology-mutation fault: live weight perturbation,
// link cut or link insertion under the running detection pipeline.
type ChurnKind = verify.ChurnKind

// ChurnEvent describes one applied topology mutation.
type ChurnEvent = verify.ChurnEvent

// The churn menu. MST-preserving kinds must keep the network silent;
// MST-breaking kinds must be detected within the O(log² n) budget (and, in
// the self-stabilizing transformer, trigger a rebuild over the mutated
// graph).
const (
	ChurnWeightKeep  = verify.ChurnWeightKeep  // raise a non-tree weight: MST preserved
	ChurnWeightBreak = verify.ChurnWeightBreak // drop a non-tree weight below its cycle max
	ChurnCut         = verify.ChurnCut         // remove a non-tree link (port compaction)
	ChurnAddHeavy    = verify.ChurnAddHeavy    // insert a link heavier than everything
	ChurnAddLight    = verify.ChurnAddLight    // insert a link closing a lighter cycle
)

// NumChurnKinds is the size of the churn menu.
const NumChurnKinds = verify.NumChurnKinds

// ParseChurnKind resolves a churn kind by its canonical name ("weight-keep",
// "weight-break", "cut", "add-heavy", "add-light"); ok is false for unknown
// names. CLI menus parse against this single table. Verifier and
// SelfStabilizing both apply a churn event with their ApplyChurn method.
func ParseChurnKind(name string) (ChurnKind, bool) { return verify.ParseChurnKind(name) }

// IsMST reports whether the edge set is the minimum spanning tree of g: the
// verdict of the offline path-max T-lightness oracle (internal/oracle).
func IsMST(g *Graph, edges []int) bool {
	return oracle.TLightness(g, edges, graph.ByWeight(g)).IsMST
}

// NormalizeWeights returns a copy of g whose weights are replaced by their
// ranks under the ω′ order of Kor et al. (footnote 1 of the paper) for the
// given candidate tree: distinct integers such that the candidate is an MST
// of the normalized graph iff it is an MST of the original — the transform
// that makes verification of graphs with duplicate weights sound (the
// standard ID-only tie-break does not preserve this). Pass nil to normalize
// for construction (no candidate; plain lexicographic tie-break).
func NormalizeWeights(g *Graph, candidate []int) *Graph {
	inTree := make(map[int]bool, len(candidate))
	for _, e := range candidate {
		inTree[e] = true
	}
	var order graph.EdgeOrder
	if candidate == nil {
		order = graph.ModifiedOrder(g, func(int) bool { return false })
	} else {
		order = graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
	}
	perm := make([]int, g.M())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return order(perm[i], perm[j]) })
	// Preserve identities.
	ids := make([]graph.NodeID, g.N())
	for v := range ids {
		ids[v] = g.ID(v)
	}
	out := graph.New(g.N(), ids)
	rank := make([]graph.Weight, g.M())
	for r, e := range perm {
		rank[e] = graph.Weight(r + 1)
	}
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		out.MustAddEdge(ed.U, ed.V, rank[e])
	}
	return out
}

// DetectionBudget bounds the detection time of Theorem 8.5 for n nodes.
func DetectionBudget(n int) int { return verify.DetectionBudget(n) }

// CorruptSpanningTree returns the spanning tree obtained from g's MST by k
// random cycle edits, each swapping a strictly lighter tree edge for a
// heavier non-tree edge on its cycle — so for k ≥ 1 (under distinct
// weights) the result is certifiably non-minimal. Deterministic in
// (k, seed); errors when the graph has no cycle left to edit (adversarial
// instance generation for the fault-campaign experiments).
func CorruptSpanningTree(g *Graph, k int, seed int64) ([]int, error) {
	gen, err := graph.NewCorruptedMSTGenerator(g)
	if err != nil {
		return nil, err
	}
	return gen.Generate(k, seed)
}

// OracleIsMST is the centralized ground truth the distributed verdicts are
// cross-checked against: it runs both the offline path-max T-lightness
// oracle and the Union-Find cycle-property oracle (internal/oracle) and
// errors if the two independent checkers ever disagree, or if a tree edge
// id is out of range.
func OracleIsMST(g *Graph, treeEdges []int) (bool, error) {
	return oracle.CrossCheck(g, treeEdges, graph.ByWeight(g))
}
