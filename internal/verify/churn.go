package verify

import (
	"fmt"
	"math"
	"math/rand"

	"ssmst/internal/graph"
)

// This file is the topology-churn fault menu: live mutations of the network
// — weight perturbation, link cut, link insertion — applied under a running
// detection pipeline. Blin et al. and Kutten–Trehan treat these as
// first-class faults, and the scheme's proof-labeling soundness extends to
// them directly: the labels are a valid proof exactly while the tree under
// verification is an MST of the *current* graph, so an MST-preserving event
// must keep the network silent and an MST-breaking one must be detected
// within the usual O(log² n) budget.
//
// Each kind plans a concrete mutation against the tree currently under
// verification and applies it through runtime.Engine.MutateTopology, which
// re-syncs the CSR snapshot, remaps port-indexed protocol state under port
// compaction, and bumps the dirty epochs of the touched neighbourhoods so
// the incremental verifier re-checks exactly the changed region.

// ChurnKind selects a topology-mutation fault.
type ChurnKind int

// The churn menu. The MST-preserving kinds leave the labels a valid proof
// (the verifier must stay silent); the MST-breaking kinds invalidate the
// tree against the current weights (detection is guaranteed by soundness).
const (
	// ChurnWeightKeep raises a non-tree edge's weight above every current
	// weight: the MST and the proof stay valid.
	ChurnWeightKeep ChurnKind = iota
	// ChurnWeightBreak lowers a non-tree edge's weight below the heaviest
	// tree edge on its cycle: the tree is no longer an MST.
	ChurnWeightBreak
	// ChurnCut removes a non-tree edge (port compaction at both endpoints);
	// the tree — and the proof — survive.
	ChurnCut
	// ChurnAddHeavy inserts a link heavier than every current weight: the
	// MST is unchanged.
	ChurnAddHeavy
	// ChurnAddLight inserts a link lighter than the heaviest tree edge on
	// the cycle it closes: the tree is no longer an MST.
	ChurnAddLight
	numChurnKinds
)

// NumChurnKinds is the size of the churn menu.
const NumChurnKinds = int(numChurnKinds)

var churnKindNames = [numChurnKinds]string{
	"weight-keep", "weight-break", "cut", "add-heavy", "add-light",
}

func (k ChurnKind) String() string {
	if k >= 0 && int(k) < len(churnKindNames) {
		return churnKindNames[k]
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// ParseChurnKind resolves a kind by its canonical name (the String values:
// "weight-keep", "weight-break", "cut", "add-heavy", "add-light") — the
// single name table CLI menus parse against, so a new kind is never half
// wired. ok is false for unknown names.
func ParseChurnKind(name string) (ChurnKind, bool) {
	for k, n := range churnKindNames {
		if n == name {
			return ChurnKind(k), true
		}
	}
	return 0, false
}

// BreaksMST reports whether the kind invalidates the verified tree against
// the mutated graph (detection expected) rather than preserving it
// (silence expected).
func (k ChurnKind) BreaksMST() bool {
	return k == ChurnWeightBreak || k == ChurnAddLight
}

// ChurnEvent describes one planned mutation.
type ChurnEvent struct {
	Kind ChurnKind
	U, V int          // endpoints of the mutated edge
	W    graph.Weight // new weight (weight and add kinds)
}

func (ev ChurnEvent) String() string {
	return fmt.Sprintf("%s (%d,%d) w=%d", ev.Kind, ev.U, ev.V, ev.W)
}

// PlanChurn picks a concrete mutation of the given kind against graph g and
// the spanning tree t currently under verification. It returns the event,
// an apply function for runtime.Engine.MutateTopology, and whether a
// mutation of that kind exists (a tree-only graph has no edge to cut, a
// dense graph none to add, a light cycle needs a tree edge heavier than some
// free weight). Planning reads only g and t's parent pointers and depths —
// never t.ParentEdge or t.G, whose edge indices churn may have compacted —
// and the apply function looks the edge up by its endpoints, so one plan
// applies to every copy of the graph: reference runners each step their own
// copy and receive every planned event through their own engine.
func PlanChurn(g *graph.Graph, t *graph.Tree, kind ChurnKind, rng *rand.Rand) (ChurnEvent, func(*graph.Graph) error, bool) {
	ev := ChurnEvent{Kind: kind, U: -1, V: -1}
	switch kind {
	case ChurnWeightKeep, ChurnWeightBreak, ChurnCut:
		cands := nonTreeEdges(g, t.Parent)
		if len(cands) == 0 {
			return ev, nil, false
		}
		if kind == ChurnWeightBreak {
			// A single random edge can have a saturated cycle (every positive
			// weight below its cycle max already taken); try the non-tree
			// edges in random order until one admits a fresh breaking weight,
			// so ok=false means no weight-break exists anywhere, not that one
			// draw was unlucky.
			used := usedWeights(g)
			for _, i := range rng.Perm(len(cands)) {
				ed := g.Edge(cands[i])
				limit, ok := treeCycleMaxWeight(g, t, ed.U, ed.V)
				if !ok {
					continue
				}
				w, ok := freshWeightBelow(used, limit)
				if !ok {
					continue
				}
				ev.U, ev.V, ev.W = ed.U, ed.V, w
				return ev, setWeightFn(ev.U, ev.V, ev.W), true
			}
			return ev, nil, false
		}
		ed := g.Edge(cands[rng.Intn(len(cands))])
		ev.U, ev.V = ed.U, ed.V
		if kind == ChurnWeightKeep {
			ev.W = freshWeightAbove(g, rng)
			return ev, setWeightFn(ev.U, ev.V, ev.W), true
		}
		// ChurnCut
		ev.W = ed.W
		return ev, func(gg *graph.Graph) error {
			e := gg.EdgeBetween(ev.U, ev.V)
			if e < 0 {
				return fmt.Errorf("churn: edge (%d,%d) vanished before the cut", ev.U, ev.V)
			}
			return gg.RemoveEdge(e)
		}, true

	case ChurnAddHeavy, ChurnAddLight:
		// The used-weight set is invariant across attempts (planning never
		// mutates the graph): build the O(m) map once, not per attempt.
		var used map[graph.Weight]bool
		if kind == ChurnAddLight {
			used = usedWeights(g)
		}
		for attempt := 0; attempt < 8*g.N(); attempt++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v || g.PortTo(u, v) >= 0 {
				continue
			}
			ev.U, ev.V = u, v
			if kind == ChurnAddHeavy {
				ev.W = freshWeightAbove(g, rng)
			} else {
				limit, ok := treeCycleMaxWeight(g, t, u, v)
				if !ok {
					continue
				}
				w, ok := freshWeightBelow(used, limit)
				if !ok {
					continue
				}
				ev.W = w
			}
			return ev, func(gg *graph.Graph) error {
				_, err := gg.AddEdge(ev.U, ev.V, ev.W)
				return err
			}, true
		}
		return ev, nil, false
	}
	return ev, nil, false
}

// ApplyChurn plans a churn event of the given kind against the verified
// tree and applies it through the engine (MutateTopology). It reports the
// event and whether one was applied.
func (r *Runner) ApplyChurn(kind ChurnKind, rng *rand.Rand) (ChurnEvent, bool) {
	ev, apply, ok := PlanChurn(r.Eng.G(), r.Labeled.Tree, kind, rng)
	if !ok {
		return ev, false
	}
	return ev, r.Eng.MutateTopology(apply) == nil
}

// setWeightFn returns an apply function that re-resolves the edge by its
// endpoints at apply time (edge indices may have been compacted since).
func setWeightFn(u, v int, w graph.Weight) func(*graph.Graph) error {
	return func(gg *graph.Graph) error {
		e := gg.EdgeBetween(u, v)
		if e < 0 {
			return fmt.Errorf("churn: edge (%d,%d) vanished before the reweight", u, v)
		}
		return gg.SetWeight(e, w)
	}
}

// nonTreeEdges returns the indices of every edge not on the tree.
func nonTreeEdges(g *graph.Graph, parent []int) []int {
	cand := make([]int, 0, g.M())
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		if parent[ed.U] != ed.V && parent[ed.V] != ed.U {
			cand = append(cand, e)
		}
	}
	return cand
}

// treeCycleMaxWeight returns the heaviest weight in g of the tree links on
// t's path between u and v — the cycle any (u,v) link closes — reading each
// hop's weight through EdgeBetween. ok is false for an empty path (u == v)
// or a tree link g lacks.
func treeCycleMaxWeight(g *graph.Graph, t *graph.Tree, u, v int) (graph.Weight, bool) {
	max := graph.Weight(math.MinInt64)
	whole := t.WalkPath(u, v, func(x int) bool {
		e := g.EdgeBetween(x, t.Parent[x])
		if e >= 0 && g.Edge(e).W > max {
			max = g.Edge(e).W
		}
		return e >= 0
	})
	return max, whole && u != v
}

// freshWeightAbove returns an unused weight strictly above every current
// edge weight, with randomized headroom so repeated events stay distinct.
func freshWeightAbove(g *graph.Graph, rng *rand.Rand) graph.Weight {
	var max graph.Weight
	for _, ed := range g.Edges() {
		if ed.W > max {
			max = ed.W
		}
	}
	return max + 1 + graph.Weight(rng.Intn(1000))
}

// usedWeights returns the set of weights currently assigned — hoisted out
// of attempt loops, since planning never mutates the graph.
func usedWeights(g *graph.Graph) map[graph.Weight]bool {
	used := make(map[graph.Weight]bool, g.M())
	for _, ed := range g.Edges() {
		used[ed.W] = true
	}
	return used
}

// freshWeightBelow returns the largest weight strictly below limit that is
// not in used, keeping the weight assignment distinct (the model of §2.1
// assumes distinct weights; ties would need the ω′ transform). ok is false
// when every positive weight below limit is taken.
func freshWeightBelow(used map[graph.Weight]bool, limit graph.Weight) (graph.Weight, bool) {
	for w := limit - 1; w > 0; w-- {
		if !used[w] {
			return w, true
		}
	}
	return 0, false
}
