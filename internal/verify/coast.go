package verify

import (
	mbits "math/bits"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/runtime"
	"ssmst/internal/train"
)

// Coast regime — the verifier's half of worklist stepping (PR 8; see
// internal/runtime/worklist.go for the engine's half).
//
// A legal quiet verifier network never reaches a fixed point on its own:
// the trains sweep forever and the sampler clocks tick every round, so a
// naive skip-unchanged worklist would be unsound. The coast regime makes
// quiescence a certified, opt-in protocol state instead:
//
//  0. Seed. A fresh, correct instance skips steps 1 and 2:
//     NewWorklistRunner installs, before the first round, the
//     configuration a quiet network settles into (seedQuiescence) — the
//     trains drained (train.Drained), the sampler at the start of its
//     capture-starvation orbit, the static memo, and Coasting with its
//     footprint — at every node or at none. Each node passes the same
//     static layer (checkStatic) and the same certificate (certifies) as
//     in step 2, visited root to leaf so the lineage cascade holds. What
//     the seed skips is step 1's quiet horizon, whose job is to rule out a
//     latent violation before a node freezes. A gate replaces it: the seed
//     runs only where there is nothing to find — oracle.TLightness accepts
//     the labelled tree as the graph's MST, and the graph is unchanged
//     since marking (freshMST). The oracle alone is not enough: lowering a
//     tree edge's weight after marking leaves the tree an MST but its
//     labels wrong, which an awake verifier flags within rounds and a
//     frozen one never would. A correct instance never alarms, and a later
//     fault is detected from any configuration within the Theorem 8.5
//     budget, so starting frozen costs no soundness. Every other instance
//     (MarkTree on a non-MST, a graph changed after marking) starts awake
//     at step 1.
//  1. Rest the trains. Once a node's tracked neighbourhood has been quiet
//     for the horizon (coastHorizon), its train contexts carry
//     RestOK and the part roots park at the end of a completed cycle
//     (train.Ctx.RestOK) — the whole train reaches a per-node fixed point
//     within one cycle budget, with only the roots' peer-invisible
//     watchdogs still ticking.
//  2. Certify. At the end of a normal step, a node whose round raised no
//     alarm, whose static verdict is memoized clean, whose own and all
//     neighbours' trains are at rest, whose tree parent is already frozen
//     for every train it is a member of (lineageFrozen — freezing cascades
//     root→leaf so no member can freeze into the path of a future reset
//     wave), and whose entire sampler orbit over the frozen neighbourhood
//     is provably alarm-free (samplerOrbitClean replays, through the
//     sampler's own capture rule, every capture and comparison the awake
//     sweep would perform) sets Coasting. The certificate carries no stamp
//     of its own: it is issued in the round the static memo is stamped
//     (staticEpoch), and no coasting step moves that stamp. From here on
//     the node's step is pure per-node clockwork.
//  3. Coast. A coasting node's step (the coast branch of StepInto) is
//     coastAdvance(s, 1): the root watchdogs tick modulo their wrap and the
//     sampler runs a capture-starvation orbit — CapTimer to the dwell
//     window, then advanceLevel, at every level uniformly (it re-captures
//     nothing and compares nothing; step 2 proved the comparisons it skips
//     are clean). A worklist engine that skips the node replays k rounds
//     with one coastAdvance(s, k), in O(1): dense and sparse stepping run
//     the same closed form.
//  4. Melt. Any tracked change inside the 1-hop neighbourhood — fault
//     injection, topology churn, a label repair — fails the coast guard;
//     the node wakes into a full step and marks itself changed, waking its
//     own neighbours next round. A wake wave therefore spreads outward at
//     one hop per round from every fault: detection proceeds exactly as in
//     the always-awake verifier once the wave reaches the nodes that must
//     observe the fault, and the region re-certifies and re-freezes after
//     recovery plus one horizon. This one-hop-per-round wake latency is
//     the regime's accepted cost; it is bounded by the detection-distance
//     bounds already measured for the incremental path.
//
// While coasting, BitSize reports coastBits — the maximum width the state
// attains anywhere on its coast orbit, computed once at certification — so
// the engine's bit high-water mark is identical whether the node is stepped
// every round (dense reference) or skipped and replayed (worklist). The
// regime is restricted to Mode == Sync: the asynchronous sampler's
// Want-handshake couples a node's clocks to its neighbours' service
// decisions, which a per-node closed form cannot replay.

// Quiescent implements runtime.CoastStepper: a coasting node's next step,
// under an unchanged neighbourhood, is exactly coastAdvance(s, 1), forever
// — the verifier names no timed wake.
func (m *Machine) Quiescent(st runtime.State) (int64, bool) {
	s, ok := st.(*VState)
	return runtime.NoWake, ok && s.coasting
}

// CoastAdvance implements runtime.CoastStepper: advance a coasting node's
// clockwork by k rounds in place, in O(1) — equal to k coast steps, each of
// which runs coastAdvance(s, 1) (TestCoastAdvanceMatchesTicks pins the
// closed form against the one-round tick form across every wrap).
//
//ssmst:hotpath
//ssmst:coastpure
func (m *Machine) CoastAdvance(st runtime.State, k int) {
	if s, ok := st.(*VState); ok {
		m.coastAdvance(s, k)
	}
}

// coastAdvance advances the coast clockwork by k rounds: the resting part
// roots' watchdogs tick modulo their wrap, and the sampler finishes its
// (at most one) in-flight dwell window and then runs the capture-starvation
// orbit, which is uniform: every level costs StaticWindow+1 rounds, so
// wraps are replayed with modular arithmetic instead of iterated. The coast
// branch of StepInto runs it with k = 1. The lag k is unbounded, so the
// arithmetic runs in int and only its results, each bounded by the dwell
// window or |J(v)|, are stored.
//
//ssmst:hotpath
//ssmst:coastpure
func (m *Machine) coastAdvance(s *VState, k int) {
	if k <= 0 {
		return
	}
	coastTrainAdvance(&s.TopS, &s.L.Train.Top, s.MyID, k)
	coastTrainAdvance(&s.BotS, &s.L.Train.Bottom, s.MyID, k)
	L := mbits.OnesCount64(s.L.HS.Members())
	if L == 0 {
		s.AskValid = false
		return
	}
	if s.AskIdx < 0 || int(s.AskIdx) >= L {
		s.AskIdx = 0
	}
	w := int(s.staticWindow)
	if s.AskValid {
		// Finish the in-flight dwell window. A certified state carries
		// AskTimer ≥ 1 (the awake step's post-invariant); the t < 1 arm
		// keeps the closed form total from degenerate values (one round
		// exits such a dwell, leaving t-1 — exactly what the awake
		// decrement-then-advance does).
		if t := int(s.AskTimer); t >= 1 {
			if k < t {
				s.AskTimer = int32(t - k)
				return
			}
			k -= t
			s.AskTimer = 0
		} else {
			s.AskTimer--
			k--
		}
		s.advanceLevel(L)
		if k == 0 {
			return
		}
	}
	// Capture-starvation orbit: CapTimer runs 0..w, advanceLevel, repeat.
	// r is the rounds until this level's timeout; the max(1, ·) clamp
	// covers out-of-range CapTimer values (one increment past the window
	// advances immediately).
	p := w + 1
	r := p - int(s.CapTimer)
	if r < 1 {
		r = 1
	}
	if k < r {
		s.CapTimer = int32(int(s.CapTimer) + k)
		return
	}
	k -= r
	s.advanceLevel(L)
	s.AskIdx = int32((int(s.AskIdx) + k/p) % L)
	s.CapTimer = int32(k % p)
}

// coastTrainAdvance advances the train half of the coast clockwork by k
// rounds: a resting part root's watchdog (restingRoot) ticks; every other
// train is frozen at its rest fixed point.
//
//ssmst:hotpath
//ssmst:coastpure
func coastTrainAdvance(st *train.State, l *train.Labels, own graph.NodeID, k int) {
	if restingRoot(l, own) {
		st.Timer = int32(train.IdleTimerAdvance(int(st.Timer), l.CycleBudget(), k))
	}
}

// restingRoot reports whether a coasting node is the part root of the
// non-empty train on labels l: its peer-invisible watchdog (the
// train.Ctx.RestOK branch of the awake step) is then that train's one
// clock still ticking. Members and empty trains are frozen.
func restingRoot(l *train.Labels, own graph.NodeID) bool {
	return l.K != 0 && l.PartRootID == own
}

// coastHorizon returns the quiet-horizon length for a node: one complete
// local sampler sweep — every level of J(v) at its full dwell window — plus
// slack for an in-flight dwell and the trains' cycle. The sweep term is
// load-bearing for soundness, not tuning: certification relies on "no alarm
// during the horizon" to rule out latent violations, and a violation
// observable at this node is only guaranteed to alarm once the sweep has
// asked about every level against the settled labels. A shorter horizon lets a region melt under a fault (say a churn
// event re-weighting an edge two hops away), go quiet again, and
// re-certify before the sweep reaches the offending level — freezing the
// stale comparison in forever (found by FuzzWorklistParity: a
// ChurnWeightBreak against a frozen network went undetected under the old
// 2×window default).
func coastHorizon(s *VState) int64 {
	L := mbits.OnesCount64(s.L.HS.Members())
	if L < 2 {
		L = 2
	}
	return int64(L+2) * (int64(s.staticWindow) + 1)
}

// restsAt reports the horizon-quiet predicate at the given epoch: the
// node's tracked 1-hop neighbourhood has not changed for a full horizon.
// It gates both the trains' RestOK and coast certification, so trains park
// strictly before (never after) their node freezes.
func (m *Machine) restsAt(v NodeView, s *VState, epoch int64) bool {
	h := coastHorizon(s)
	return epoch >= h && !v.LabelsChangedSince(epoch-h)
}

// lineageFrozen enforces the root-to-leaf certification cascade: for each
// non-empty train this node is a member (not the part root) of, the tree
// parent must already be Coasting. A member's trains are transiently at
// rest every cycle — in the gap between the convergecast draining and the
// root's next reset wave — and a member frozen in that gap would never
// acknowledge the reset, livelocking its whole part (the root spins on
// childrenAcked forever; train dynamics are not tracked changes, so
// nothing melts the member). A Coasting parent chain, by induction up the
// tree, proves the part root itself has PARKED (roots only certify parked,
// and a parked root launches no resets until a tracked change melts it),
// so no reset wave can ever reach the frozen member. Freezing therefore
// cascades down the tree at one hop per round after the roots park.
func lineageFrozen(s *VState, parent *VState) bool {
	return trainLineageOK(&s.L.Train.Top, s.MyID, parent, true) &&
		trainLineageOK(&s.L.Train.Bottom, s.MyID, parent, false)
}

func trainLineageOK(l *train.Labels, own graph.NodeID, parent *VState, top bool) bool {
	if l.K == 0 || l.PartRootID == own {
		return true
	}
	if parent == nil || !parent.coasting {
		return false
	}
	pl := &parent.L.Train.Bottom
	if top {
		pl = &parent.L.Train.Top
	}
	return pl.PartRootID == l.PartRootID
}

// neighboursAtRest reports whether every present neighbour's trains are
// parked. Certification requires it so the sampler-orbit precheck below is
// evaluated against Show buffers that are actually frozen; a neighbour
// whose train later un-parks implies a tracked change next to it, whose
// wake wave reaches this node before the neighbour's buffers move.
func neighboursAtRest(nbs []nbList) bool {
	for q := range nbs {
		if !nbs[q].ok {
			continue
		}
		st := nbs[q].st
		if !train.AtRest(&st.TopS, &st.L.Train.Top) || !train.AtRest(&st.BotS, &st.L.Train.Bottom) {
			return false
		}
	}
	return true
}

// samplerOrbitClean replays, read-only, every capture and comparison the
// awake sync sampler would perform over a full sweep of J(v) against the
// frozen neighbourhood, and reports whether none of them alarms. The coast
// clockwork skips captures and comparisons entirely; this one-time check
// at certification is what makes that skip detection-preserving: a latent
// violation that only some level's dwell comparisons would flag blocks the
// node from ever freezing.
func (m *Machine) samplerOrbitClean(v NodeView, s *VState, nbs []nbList, claims uint64, n int) bool {
	split := train.LevelSplit(n)
	for ; claims != 0; claims &= claims - 1 {
		j := mbits.TrailingZeros64(claims) // J(v) in ascending order
		ask, rootBad := capture(s, j, split)
		if ask == nil {
			continue // capture starves: dwell times out without alarming
		}
		if rootBad {
			return false
		}
		cand := candidatePort(s, nbs, j)
		alarm := false
		for q := range nbs {
			if nbs[q].ok {
				m.compare(v, ask, nbs, q, cand, split, &alarm)
			}
		}
		if alarm {
			return false
		}
	}
	return true
}

// certifies is the coast certificate (step 2) of a node whose round raised
// no alarm: memos settled and clean, its own and every neighbour's trains
// at rest, its lineage frozen, and its whole sampler orbit clean against
// the frozen neighbourhood. parent is the tree parent's state (treeParent)
// and n the node count the labels claim.
func (m *Machine) certifies(v NodeView, s *VState, nbs []nbList, parent *VState, n int) bool {
	return !s.coasting && s.staticValid && !s.staticAlarm &&
		train.AtRest(&s.TopS, &s.L.Train.Top) && train.AtRest(&s.BotS, &s.L.Train.Bottom) &&
		lineageFrozen(s, parent) &&
		neighboursAtRest(nbs) &&
		m.samplerOrbitClean(v, s, nbs, s.L.HS.Members(), n)
}

// freeze enters the coast regime, memoizing the orbit footprint BitSize
// reports while coasting. The caller has just stamped the static memo
// (staticEpoch), which stamps the certificate too.
func (m *Machine) freeze(s *VState) {
	s.coasting = true
	s.coastBits = int32(m.coastFootprint(s))
}

// freshMST is the seed's gate: l.G is unchanged since marking and
// oracle.TLightness accepts the labelled tree as its MST.
func (l *Labeled) freshMST() bool {
	return l.G.Version() == l.version &&
		oracle.TLightness(l.G, l.Tree.EdgeSet(), graph.ByWeight(l.G)).IsMST
}

// seedQuiescence is step 0. On a fresh, correct instance (freshMST) it
// installs the frozen configuration at every node and reports true. On any
// other instance, or if some node fails certification, it leaves every
// state as Init built it and reports false. The states are written in
// place before the first round, as Init's are: SetState would drop the
// coast certificate and mark the node dirty, melting every node at round
// 1. Memos and certificates are stamped at the engine's current round.
func (r *Runner) seedQuiescence() bool {
	l, m, eng := r.Labeled, r.Machine, r.Eng
	if !m.coast || !l.freshMST() {
		return false
	}
	g := l.G
	epoch := int64(eng.Round())
	sv := &seedView{eng: eng, adj: g.Adjacency()}
	// Certification reads the neighbours' trains, so drain them all first.
	for v := 0; v < g.N(); v++ {
		s := sv.state(v)
		s.TopS = train.Drained(&s.L.Train.Top)
		s.BotS = train.Drained(&s.L.Train.Bottom)
	}
	// Root to leaf: a member freezes only under a frozen tree parent.
	sc := new(Scratch)
	ok := true
	for _, v := range l.Tree.DFSOrder() {
		sv.node = v
		s := sv.Self()
		n := s.L.Size.N
		missing := sc.loadNeighbours(sv, sv.Degree(), s.MyID, m.Mode == Async)
		parent := m.checkStatic(sv, s, sc, missing, epoch)
		s.startLevel(0)
		if sv.repaired || coverageAlarm(s, sc, n) || !m.certifies(sv, s, sc.nbs, parent, n) {
			ok = false
			break
		}
		m.freeze(s)
	}
	if !ok {
		for v := 0; v < g.N(); v++ {
			*sv.state(v) = *l.NodeState(v)
		}
	}
	return ok
}

// seedView is the NodeView of one node before the first round: the
// engine's installed states over the graph's adjacency, with nothing
// changed since the instance was installed. MarkLabelsChanged only records
// a parent-port repair, which a marked instance never needs and the seed
// rejects.
type seedView struct {
	eng      *runtime.Engine
	adj      *graph.Adj
	node     int
	repaired bool
}

func (a *seedView) state(v int) *VState           { return a.eng.State(v).(*VState) }
func (a *seedView) Degree() int                   { return a.adj.Degree(a.node) }
func (a *seedView) slot(q int) int                { return int(a.adj.Off[a.node]) + q }
func (a *seedView) Weight(q int) graph.Weight     { return a.adj.Weight[a.slot(q)] }
func (a *seedView) PeerPort(q int) int            { return int(a.adj.PeerPort[a.slot(q)]) }
func (a *seedView) Self() *VState                 { return a.state(a.node) }
func (a *seedView) Neighbour(q int) *VState       { return a.state(int(a.adj.Peer[a.slot(q)])) }
func (a *seedView) StepEpoch() int64              { return int64(a.eng.Round()) }
func (a *seedView) LabelsChangedSince(int64) bool { return false }
func (a *seedView) MarkLabelsChanged()            { a.repaired = true }

// coastFootprint returns the maximum BitSize the state attains anywhere on
// its coast orbit: BitSize of a copy whose four orbiting fields each hold
// whichever of their orbit's values encodes wider — AskIdx against
// |J(v)|−1, CapTimer against the dwell window, CandPort against the −1 the
// first advanceLevel leaves, and a resting part root's watchdog against
// its cycle budget. Measured once at certification and returned by BitSize
// while Coasting, so dense per-round re-measurement and worklist
// endpoint-only measurement report the identical high-water mark.
func (m *Machine) coastFootprint(s *VState) int {
	c := *s
	c.coastBits = 0 // measure the fields, not a memoized footprint
	c.AskIdx = wider(c.AskIdx, int32(mbits.OnesCount64(s.L.HS.Members())-1))
	c.CapTimer = wider(c.CapTimer, s.staticWindow)
	c.CandPort = wider(c.CandPort, -1)
	if l := &s.L.Train.Top; restingRoot(l, s.MyID) {
		c.TopS.Timer = wider(c.TopS.Timer, int32(l.CycleBudget()))
	}
	if l := &s.L.Train.Bottom; restingRoot(l, s.MyID) {
		c.BotS.Timer = wider(c.BotS.Timer, int32(l.CycleBudget()))
	}
	return c.BitSize()
}

// wider returns whichever of a and b has the wider encoding.
func wider(a, b int32) int32 {
	if bits.ForInt(int64(b)) > bits.ForInt(int64(a)) {
		return b
	}
	return a
}
