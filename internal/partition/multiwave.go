package partition

// This file models the Multi_Wave primitive of §6.3.1: pipelined
// Wave&Echo executions over every fragment of the hierarchy, level by
// level, where the level-j wave of a fragment starts only after the waves
// of all its descendant fragments have terminated (Observation 6.6), and
// the whole schedule completes in O(n) ideal time because a level-j
// fragment has between 2^j and 2^{j+1}−1 nodes (Observation 6.8).
//
// The marker uses Multi_Wave for partition construction and piece
// initialization; the simulation here computes the exact ideal-time
// schedule, which the construction-time accounting of the marker (and
// experiment E7) reports.

import (
	"slices"

	"ssmst/internal/hierarchy"
)

// MultiWaveSchedule is the computed timing of one Multi_Wave execution.
type MultiWaveSchedule struct {
	// Start[f] and Finish[f] bound the wave of fragment f (ideal time).
	Start  []int
	Finish []int
	// Total is the ideal time until the multi-wave terminates at the root
	// of the final tree (including the initial whole-tree broadcast and the
	// final whole-tree echo).
	Total int
}

// waveTime returns the duration of one Wave&Echo over a fragment: down and
// up the fragment's height, at least 1.
func waveTime(h *hierarchy.Hierarchy, f int) int {
	fr := &h.Frags[f]
	// Height within the fragment ≤ size − 1; using exact node depths.
	t := h.Tree
	root := fr.Root
	max := 0
	for _, v := range fr.Nodes {
		if d := t.Depth(v) - t.Depth(root); d > max {
			max = d
		}
	}
	if max == 0 {
		return 1
	}
	return 2 * max
}

// SimulateMultiWave computes the pipelined schedule: a fragment's wave
// starts one unit after all its hierarchy children's waves finish (the
// Ready convergecast), with the global broadcast adding the depth of the
// fragment root.
func SimulateMultiWave(h *hierarchy.Hierarchy) *MultiWaveSchedule {
	nf := len(h.Frags)
	s := &MultiWaveSchedule{
		Start:  make([]int, nf),
		Finish: make([]int, nf),
	}
	// Process fragments by increasing size: children before parents.
	order := make([]int, nf)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return h.Frags[a].Size() - h.Frags[b].Size()
	})
	t := h.Tree
	for _, f := range order {
		fr := &h.Frags[f]
		// The initiating Multi_Wave broadcast reaches the fragment root at
		// time = its depth.
		start := t.Depth(fr.Root)
		for _, c := range fr.Children {
			if s.Finish[c]+1 > start {
				start = s.Finish[c] + 1
			}
		}
		s.Start[f] = start
		s.Finish[f] = start + waveTime(h, f)
		if s.Finish[f] > s.Total {
			s.Total = s.Finish[f]
		}
	}
	// Final echo back to the root of T.
	s.Total += t.Height()
	return s
}

// MarkerTime returns the ideal construction time of the full marker
// algorithm (Corollary 6.11): the SYNC_MST run plus a constant number of
// multi-waves for partition construction and piece initialization, plus
// per-part DFS placement (bounded by part sizes).
func MarkerTime(h *hierarchy.Hierarchy, constructionRounds int, p *Partitions) int {
	mw := SimulateMultiWave(h)
	placement := 0
	for i := range p.Parts {
		// DFS token walk: two time units per tree edge of the part.
		if s := 2 * p.Parts[i].Size(); s > placement {
			placement = s
		}
	}
	// Three multi-waves (coloring, merging, piece distribution) plus the
	// Top splitting wave and placement.
	return constructionRounds + 3*mw.Total + placement
}
