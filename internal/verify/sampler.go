package verify

import (
	mbits "math/bits"

	"ssmst/internal/hierarchy"
	"ssmst/internal/train"
)

// This file implements the Ask/Show comparison protocol of §7.2 and the
// minimality checks of §8.
//
// The node sweeps a cursor through J(v), the levels of fragments containing
// it. For the current level j it captures I(Fj(v)) from its own train into
// Ask, then — for a dwell window long enough for every neighbour's train to
// complete a cycle — compares against what neighbours Show (their broadcast
// buffers):
//
//	C1: if v is the endpoint of the candidate edge of Fj(v), that edge
//	    must lead outside the fragment and weigh exactly ω̂(Fj(v)).
//	C2: every edge leaving Fj(v) weighs at least ω̂(Fj(v)).
//	EQ: a neighbour claiming the same fragment must show the identical
//	    piece (Claim 8.3 — anchors ω̂ and the identifier fragment-wide).
//
// In synchronous networks the comparison is opportunistic against all
// neighbours simultaneously (§7.2.1); in asynchronous networks a round-robin
// server cursor with the Want register prevents pieces from flying past
// between activations (§7.2.2).

// sampler advances the Ask/Show machinery by one step and feeds the alarm.
// J(v) is the strings' membership mask (hierarchy.Strings.Members, one
// load off the label block); the level asked about is its AskIdx-th
// claimed level (claimAt).
//
// The sweep is batched per (node, active level): the delimiter split and
// the candidate port are pure functions of the (verified) labels, so they
// are evaluated once per step and once per dwell window — the
// per-neighbour loop touches only the neighbour's Show buffer, which
// genuinely changes every round.
func (m *Machine) sampler(v NodeView, s *VState, nbs []nbList, n int, alarm *bool) {
	claims := s.L.HS.Members()
	if claims == 0 {
		s.AskValid = false
		return
	}
	numLevels := mbits.OnesCount64(claims)
	if s.AskIdx < 0 || int(s.AskIdx) >= numLevels {
		s.AskIdx = 0
	}
	// The dwell window covers two worst-case train cycles of this node and
	// of every neighbour, computed from the verified position labels
	// (corrupted labels are caught by the label checks regardless). It is
	// label-derived, so it is computed by the static layer and memoized in
	// StaticWindow alongside the static verdict.
	window := int(s.staticWindow)
	j := claimAt(claims, int(s.AskIdx))
	split := train.LevelSplit(n)

	if !s.AskValid {
		// Capture I(Fj(v)) from the node's own train, together with the
		// candidate port of Fj(v) — fixed for the whole dwell window.
		ask, rootBad := capture(s, j, split)
		if ask == nil {
			c := int(s.CapTimer) + 1
			s.CapTimer = int32(c)
			if c > window {
				// The train never delivered the piece: its own cycle-set
				// check raises the alarm; move on so other levels are
				// still exercised. advanceLevel owns the wrap invariant
				// (AskIdx stays in [0, |J(v)|)) for every site.
				s.advanceLevel(numLevels)
			}
			return
		}
		if rootBad {
			*alarm = true
		}
		s.AskPiece = *ask
		s.CandPort = int32(candidatePort(s, nbs, j))
		s.AskValid = true
		s.AskTimer = int32(window)
		s.CapTimer = 0
		s.ServerCur = 0
		s.ServerTmr = 0
		s.Want = train.Want{}
	}

	cand := int(s.CandPort)

	if m.Mode == Sync {
		for q := range nbs {
			if nbs[q].ok {
				m.compare(v, &s.AskPiece, nbs, q, cand, split, alarm)
			}
		}
		s.AskTimer--
		if s.AskTimer <= 0 {
			s.advanceLevel(numLevels)
		}
		return
	}

	// Asynchronous mode: serve one neighbour at a time.
	deg := len(nbs)
	if deg == 0 {
		s.advanceLevel(numLevels)
		return
	}
	q := int(s.ServerCur)
	if q >= deg {
		s.advanceLevel(numLevels)
		return
	}
	served := true
	if nbs[q].ok {
		served = m.compare(v, &s.AskPiece, nbs, q, cand, split, alarm)
	}
	if served {
		s.ServerCur++
		s.ServerTmr = 0
		s.Want = train.Want{}
		if int(s.ServerCur) >= deg {
			s.advanceLevel(numLevels)
		}
		return
	}
	// File a request at the server (§7.2.2) and wait, bounded.
	s.Want = train.Want{Valid: true, ServerID: nbs[q].st.MyID, Level: int32(s.AskPiece.ID.Level)}
	t := int(s.ServerTmr) + 1
	s.ServerTmr = int32(t)
	if t > 2*window {
		// The server's train never showed the piece; the server's own part
		// raises the alarm. Move on.
		s.ServerCur++
		s.ServerTmr = 0
		s.Want = train.Want{}
		if int(s.ServerCur) >= deg {
			s.advanceLevel(numLevels)
		}
	}
}

// advanceLevel moves the Ask cursor to the next level and resets every
// per-level sampler register. It is the single owner of the wrap invariant
// (0 ≤ AskIdx < numLevels); all sites — dwell expiry, capture timeout, the
// asynchronous server sweep — go through it, so the invariant cannot
// silently diverge between paths.
func (s *VState) advanceLevel(numLevels int) { s.startLevel((int(s.AskIdx) + 1) % numLevels) }

// startLevel points the Ask cursor at index i of J(v) with every per-level
// sampler register reset: nothing asked, capture timer at 0, the
// asynchronous server sweep restarted, no candidate port.
func (s *VState) startLevel(i int) {
	s.AskValid = false
	s.AskIdx = int32(i)
	s.CapTimer = 0
	s.ServerCur = 0
	s.ServerTmr = 0
	s.Want = train.Want{}
	s.CandPort = -1
}

// capture returns the piece the node's own train shows for level j — a
// member piece of level j in the Down (Show) buffer of the train carrying
// that level, split being the delimiter LevelSplit(n) — or nil while the
// train has not delivered it. rootBad reports that the piece fails the §8
// root identity check: the fragment root's piece must carry its own
// identity. The sampler captures the piece into Ask; the coast certificate
// (samplerOrbitClean) replays the same rule.
func capture(s *VState, j, split int) (ask *hierarchy.Piece, rootBad bool) {
	side := j >= split
	d := &trainSide(s, side).Down
	if !train.MemberAt(d, &s.L.HS, side, split) || d.P.ID.Level != j {
		return nil, false
	}
	return &d.P, s.L.HS.RootsAt(j) == hierarchy.RootsYes && d.P.ID.RootID != s.MyID
}

// compare runs the level-j checks of the asked piece ask against the
// neighbour at port q; cand is the candidate port of Fj(v) and split the
// delimiter LevelSplit(n) — both level/label-derived loop invariants hoisted
// by the caller (cand once per dwell window, split once per step), so the
// per-neighbour work is only the Show-buffer comparison itself. It returns
// true when the comparison is complete (the event E(v,u,j) of §7.2 occurred
// or needs no piece), false when v must keep waiting for u's train.
func (m *Machine) compare(v NodeView, ask *hierarchy.Piece, nbs []nbList, q, cand, split int, alarm *bool) bool {
	u := nbs[q].st
	j := ask.ID.Level
	w := v.Weight(q)
	isCand := cand == q

	if !u.L.HS.InFragmentAt(j) {
		// u is in no level-j fragment: the edge leaves Fj(v).
		if w < ask.W {
			*alarm = true // C2
		}
		if isCand && w != ask.W {
			*alarm = true // C1
		}
		return true
	}
	side := j >= split
	d := &trainSide(u, side).Down
	if !train.MemberAt(d, &u.L.HS, side, split) || d.P.ID.Level != j {
		return false // u's piece not visible yet
	}
	theirs := &d.P
	if theirs.ID == ask.ID {
		// Same fragment: pieces must agree in full (EQ), and the candidate
		// edge must not be internal (C1).
		if *theirs != *ask {
			*alarm = true
		}
		if isCand {
			*alarm = true
		}
		return true
	}
	// Different fragments: the edge is outgoing.
	if w < ask.W {
		*alarm = true // C2
	}
	if isCand && w != ask.W {
		*alarm = true // C1
	}
	return true
}

// candidatePort returns the port of the candidate edge of Fj(v) if v is its
// inside endpoint (-1 otherwise), per the EndP/Parents conventions: "up"
// points at the tree parent, "down" at the unique child with Parents[j].
func candidatePort(s *VState, nbs []nbList, j int) int {
	if j < 0 || j >= s.L.HS.Levels() {
		return -1
	}
	switch s.L.HS.EndPAt(j) {
	case hierarchy.EndPUp:
		return int(s.ParentPort)
	case hierarchy.EndPDown:
		for q := range nbs {
			if nbs[q].ok && nbs[q].isChild {
				hs := &nbs[q].st.L.HS
				if j < hs.Levels() && hs.ParentsAt(j) {
					return q
				}
			}
		}
	}
	return -1
}

// dwellWindow returns the Ask dwell time: two cycle budgets of the slowest
// train among this node and its neighbours, plus slack.
func dwellWindow(s *VState, nbs []nbList) int {
	b := trainBudget(&s.L.Train)
	for q := range nbs {
		if nbs[q].ok {
			if nb := trainBudget(&nbs[q].st.L.Train); nb > b {
				b = nb
			}
		}
	}
	return 2*b + 16
}

func trainBudget(nl *train.NodeLabels) int {
	top := nl.Top.CycleBudget()
	bot := nl.Bottom.CycleBudget()
	if top > bot {
		return top
	}
	return bot
}

// claimAt returns the i-th claimed level of J(v) in ascending order, for
// 0 ≤ i < |J(v)|: the position of claims' i-th set bit. J(v) is the mask
// hierarchy.Strings.Members: bit j is set iff the strings claim a level-j
// fragment containing the node, and a block holds at most
// hierarchy.MaxLevels = 63 levels, so every level fits it.
func claimAt(claims uint64, i int) int {
	for ; i > 0; i-- {
		claims &= claims - 1
	}
	return mbits.TrailingZeros64(claims)
}
