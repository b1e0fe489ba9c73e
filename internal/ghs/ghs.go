// Package ghs implements the Gallager–Humblet–Spira MST algorithm (§4.1)
// at the fragment level, with ideal-time accounting: the baseline the paper
// improves on. GHS merges fragments of equal level over their common
// minimum outgoing edge (level+1) and absorbs lower-level fragments into
// higher ones; a fragment of level L has ≥ 2^L nodes, and each level's
// waves cost time proportional to the fragment diameter, so the total time
// is O(n log n) — versus SYNC_MST's O(n) with its doubling round schedule.
//
// The returned tree is validated against Kruskal in the tests; the rounds
// metric drives the construction-time comparison of experiment E6.
package ghs

import (
	"errors"
	"fmt"
	"slices"

	"ssmst/internal/graph"
)

// Result is a GHS run: the MST edges and the ideal-time estimate.
type Result struct {
	TreeEdges []int
	// Rounds is the ideal time: per merge level, broadcasting find/found
	// waves over each fragment costs twice its height plus the test
	// exchanges; levels are summed.
	Rounds int
	Levels int
}

type fragment struct {
	nodes []int
	level int
	root  int
}

// Run executes fragment-level GHS. Weights must be distinct.
func Run(g *graph.Graph) (*Result, error) {
	if g.N() == 0 {
		return nil, errors.New("ghs: empty graph")
	}
	if !g.Connected() {
		return nil, errors.New("ghs: graph not connected")
	}
	if !g.HasDistinctWeights() {
		return nil, errors.New("ghs: weights must be distinct")
	}
	n := g.N()
	frags := make([]*fragment, n)
	fragOf := make([]int, n)
	// hook[fi] is the fragment fi hooks into this pass over edgeOf[fi] (fi
	// itself for a fragment that does not hook); find resolves it to the
	// group's sink.
	hook := make([]int, n)
	edgeOf := make([]int, n)
	for v := 0; v < n; v++ {
		frags[v] = &fragment{nodes: []int{v}, root: v}
		fragOf[v] = v
	}
	find := func(x int) int {
		r := x
		for hook[r] != r {
			r = hook[r]
		}
		for hook[x] != r {
			hook[x], x = r, hook[x]
		}
		return r
	}
	var treeEdges []int
	rounds := 0
	maxLevel := 0
	live := n
	for live > 1 {
		// One GHS "pass": every fragment at the current minimum level finds
		// its minimum outgoing edge and either merges (equal level, same
		// edge) or is absorbed by the higher-level fragment it points at.
		minLevel := 1 << 30
		for fi, f := range frags {
			hook[fi] = fi
			if f != nil && f.level < minLevel {
				minLevel = f.level
			}
		}
		hooked := false
		for fi, f := range frags {
			if f == nil || f.level != minLevel {
				continue
			}
			best := -1
			for _, v := range f.nodes {
				for _, h := range g.Ports(v) {
					if fragOf[h.Peer] == fi {
						continue
					}
					if best < 0 || g.Edge(h.Edge).W < g.Edge(best).W {
						best = h.Edge
					}
				}
			}
			if best < 0 {
				continue
			}
			// Fragment fi hooks into the fragment across its chosen edge.
			ed := g.Edge(best)
			target := fragOf[ed.U]
			if target == fi {
				target = fragOf[ed.V]
			}
			hook[fi], edgeOf[fi] = target, best
			treeEdges = append(treeEdges, best)
			hooked = true
		}
		if !hooked {
			// All minimum-level fragments are spanning or blocked: the
			// remaining fragment spans the graph.
			break
		}
		// Break mutual pairs (the only possible cycles, by the decreasing-
		// weight argument of §4.1): the fragment with the larger root
		// identity wins and does not hook.
		for fi, target := range hook {
			if target != fi && hook[target] == fi && edgeOf[fi] == edgeOf[target] {
				winner := fi
				if g.ID(frags[target].root) > g.ID(frags[fi].root) {
					winner = target
				}
				hook[winner] = winner
			}
		}
		// Each group merges into its sink. Only minimum-level fragments
		// hook, so a sink at the minimum level won a mutual merge of
		// equal-level fragments, which raises the level.
		largest := 1
		for fi, f := range frags {
			if f == nil || hook[fi] == fi {
				continue
			}
			si := find(fi)
			sink := frags[si]
			if sink.level == minLevel {
				sink.level++
			}
			if sink.level > maxLevel {
				maxLevel = sink.level
			}
			sink.nodes = append(sink.nodes, f.nodes...)
			for _, v := range f.nodes {
				fragOf[v] = si
			}
			if len(sink.nodes) > largest {
				largest = len(sink.nodes)
			}
			frags[fi] = nil
			live--
		}
		// Ideal time of the pass: find/found/change-root waves walk the
		// largest resulting fragment, plus the test/accept exchange.
		rounds += 3*largest + 2
	}
	// Both sides of a mutual pair chose the shared edge.
	slices.Sort(treeEdges)
	treeEdges = slices.Compact(treeEdges)
	if len(treeEdges) != n-1 {
		return nil, fmt.Errorf("ghs: %d tree edges for %d nodes", len(treeEdges), n)
	}
	return &Result{TreeEdges: treeEdges, Rounds: rounds, Levels: maxLevel}, nil
}
