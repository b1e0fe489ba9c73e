package runtime

import "math"

// Worklist (active-set) stepping — PR 8.
//
// A synchronous round of the dense engine visits all n nodes even when the
// network is quiet and almost every step is a memo-hit replay. The worklist
// mode inverts that: the engine keeps a frontier of nodes whose next step
// could differ from the machine's declared coast regime, steps only those,
// and advances every skipped node's clockwork algebraically on demand. A
// quiet round is O(active + Δ) — the active set plus the 1-hop halo of the
// round's dirty marks — instead of O(n).
//
// # The activation contract
//
// The machine side of the bargain is the CoastStepper interface: a machine
// declares, per state, whether the node is quiescent — meaning its next
// step, under an unchanged neighbourhood, is exactly one tick of a pure
// per-node clockwork (CoastAdvance with k=1) — until which round that holds,
// and provides the k-round closed form of that clockwork. The verifier's
// coast regime (certified static verdict, trains at rest, starved sampler
// sweep; see internal/verify/coast.go) holds forever; the transformer's
// pulse phases (internal/selfstab) hold until the node's next self-timed
// pulse.
//
// The engine side wakes a skipped node in two ways. Change-driven wakes
// come from the same dirty-epoch journal that powers incremental
// verification:
//
//   - every dirty bump — View.MarkChanged commits, SetState, Corrupt,
//     MutateTopology — wakes the marked node AND its 1-hop
//     neighbours (a step reads exactly the 1-hop neighbourhood, so that is
//     the full influence cone of one change);
//   - every stepped node that remains non-quiescent re-enters the frontier
//     (its state keeps evolving, which its own next step must see);
//   - a machine that wakes out of its coast regime marks itself changed
//     (the verifier's wake mark), which wakes its neighbours next round —
//     faults melt a coasting region outward at one hop per round until the
//     protocol re-certifies and re-freezes it.
//
// A timed wake is the round a quiescent state names itself (Quiescent's
// wake): the engine steps the node in that round even if nothing around it
// changed. The pending wakes sit in a min-heap over node indices, one entry
// per node, allocated when the machine first names a wake; a round pops the
// entries that are due (O(1) when none is) and a stepped node's entry is
// moved, not added twice, so the heap never outgrows n and steady-state
// rounds allocate nothing.
//
// Skipping is sound because it is exactly the machine's own coast branch:
// the dense engine steps a quiescent node by running CoastAdvance(s, 1)
// inside the machine step, the sparse engine runs CoastAdvance(s, k) once
// on re-activation (or on read). Both trajectories are the same function of
// the same inputs, so verdicts, detection rounds, alarm traces and
// MaxStateBits are bit-identical by construction — locked by the
// differential parity suites and fuzz batteries in internal/verify and
// internal/selfstab.
//
// Lazy materialization: states[i] of a skipped node reflects the end of
// round matT[i] ≤ round. Before a round, every active node and every
// skipped neighbour of an active node is materialized to the current round,
// so machine steps always read fullsweep-equivalent values; Engine.State
// materializes on read, so external observers never see a lagged state.
// A quiescent state keeps its BitSize constant until its wake round, so the
// bit high-water mark needs no per-round re-measurement of skipped nodes.
// The verifier memoizes a width-complete coast footprint and never wakes;
// a state whose width does change while it coasts (the transformer counts
// its growing pulse) names the round its width next grows as a wake, and
// the step there measures the wider state.
//
// One round body: a worklist round is StepSync with a different node
// sequence (the frontier instead of 0..n-1) and a different install
// (per-slot swap instead of buffer swap); the chunk body, the per-node step
// with its alarm/termination flip counting, the fan-out decision and the
// reduction are the dense round's. The choice is latched: the first
// synchronous round with Worklist set arms the worklist for the engine's
// lifetime, so lag only ever exists on an engine that steps sparse rounds.
// Clearing Worklist afterwards, or stepping the armed engine
// asynchronously, panics instead of silently replaying that lag.

// CoastStepper is the optional Machine contract behind worklist stepping
// (Engine.Worklist). Quiescent reports whether state s is in the machine's
// coast regime, and until when: a quiescent state promises that stepping it
// in any round before wake, under a neighbourhood that marked no change
// since it was written, is exactly one CoastAdvance tick (k=1), raises no
// alarm, and leaves its BitSize unchanged. In round wake the node must step
// again whatever its neighbourhood did; NoWake means never. wake is an
// absolute round (an Engine.Round value), so a quiescent state names the
// same wake at every tick of its coast. CoastAdvance advances the coast
// clockwork of state s by k rounds, in place, in O(1) — wraps and resets
// replayed algebraically, never iterated — from s alone: whatever the
// clockwork reads, the state carries.
type CoastStepper interface {
	Quiescent(s State) (wake int64, ok bool)
	CoastAdvance(s State, k int)
}

// NoWake is the wake of a quiescent state that coasts until its
// neighbourhood changes.
const NoWake int64 = math.MaxInt64

// StepsTaken returns the cumulative number of machine steps executed: n per
// dense synchronous round, the active-set size per worklist round (so a
// quiet round adds 0), and one per asynchronous activation.
func (e *Engine) StepsTaken() int64 { return e.stepsTaken }

// LastActive returns the size of the previous synchronous round's active
// set (n under dense stepping).
func (e *Engine) LastActive() int { return e.lastActive }

// worklistReady reports whether sparse structures are armed.
func (e *Engine) worklistReady() bool { return e.inFrontier != nil }

// ensureWorklist allocates the sparse structures and seeds the frontier
// with every node: the frontier starts full, so the first armed round steps
// every node, and the machine decides whether a node starts awake (a state
// installed already quiescent takes its coast step there; an awake node
// stays on the frontier until the machine certifies it quiescent). One-time
// cost; the round loop itself allocates nothing afterwards.
func (e *Engine) ensureWorklist() {
	if e.worklistReady() {
		return
	}
	n := e.g.N()
	e.inFrontier = make([]bool, n)
	e.frontier = make([]int32, 0, n)
	e.nextFrontier = make([]int32, 0, n)
	e.matT = make([]int64, n)
	now := int64(e.round)
	for i := 0; i < n; i++ {
		e.matT[i] = now
		e.inFrontier[i] = true
		e.nextFrontier = append(e.nextFrontier, int32(i))
	}
}

// enqueue schedules node i for the next sparse round.
//
//ssmst:hotpath
func (e *Engine) enqueue(i int32) {
	if !e.inFrontier[i] {
		e.inFrontier[i] = true
		e.nextFrontier = append(e.nextFrontier, i)
	}
}

// wakeNeighbourhood schedules a dirty node and its 1-hop neighbours — the
// influence cone of one state change under the read-neighbours-once step
// model. Called from bumpDirty, which runs only between rounds (in-round
// marks buffer and commit at the boundary), so no locking is needed.
//
//ssmst:hotpath
func (e *Engine) wakeNeighbourhood(v int) {
	e.enqueue(int32(v))
	a := e.adj
	lo, hi := a.Off[v], a.Off[v+1]
	for _, p := range a.Peer[lo:hi] {
		e.enqueue(p)
	}
}

// materialize advances a skipped node's coast clockwork to the end of round
// T. The state must be quiescent (the engine only lets quiescent nodes lag;
// every injection/topology path re-synchronizes matT first).
//
//ssmst:hotpath
func (e *Engine) materialize(i int, T int64) {
	k := T - e.matT[i]
	if k <= 0 {
		return
	}
	e.matT[i] = T
	e.coaster.CoastAdvance(e.states[i], int(k))
}

// takeFrontier arms the worklist on first use and takes this round's active
// set, materialized to the current round together with its read halo
// (every skipped neighbour of an active node), so machine steps read
// fullsweep-equivalent values. Enqueues made during the round target the
// next frontier.
func (e *Engine) takeFrontier() []int32 {
	e.ensureWorklist()
	T := int64(e.round)
	for len(e.wakeHeap) > 0 && e.wakeAt[e.wakeHeap[0]] <= T {
		e.enqueue(e.popWake())
	}
	e.frontier, e.nextFrontier = e.nextFrontier, e.frontier[:0]
	active := e.frontier
	a := e.adj
	for _, i := range active {
		e.inFrontier[i] = false
		e.materialize(int(i), T)
	}
	for _, i := range active {
		lo, hi := a.Off[i], a.Off[i+1]
		for _, p := range a.Peer[lo:hi] {
			if e.matT[p] < T {
				e.materialize(int(p), T)
			}
		}
	}
	return active
}

// installActive installs a worklist round's new states by per-slot swap,
// O(active). Skipped slots keep their (possibly lagged) states; the
// read-previous-round invariant held during the round because writes went
// to the spare buffer's slots only.
func (e *Engine) installActive(active []int32) {
	T := int64(e.round) + 1
	for _, i := range active {
		e.install(int(i))
		e.matT[i] = T
	}
}

// install makes the state stepNode wrote into node i's spare slot current;
// the state it replaces becomes the slot's scratch for the node's next
// step. Worklist rounds and asynchronous activations install through it.
func (e *Engine) install(i int) {
	e.states[i], e.prev[i] = e.prev[i], e.states[i]
}

// requeue puts a node stepped in the round just finished back on the
// worklist: a non-quiescent node, or one whose wake is the next round,
// joins the next frontier; a quiescent one waits for a change or its timed
// wake, which replaces any wake it had pending. No wake is cancelled: one
// left pending by a node that has since stepped into another kind of state
// fires while the node is on the frontier anyway, or costs it one step the
// dense engine takes too.
//
//ssmst:hotpath
func (e *Engine) requeue(i int32) {
	switch wake, ok := e.coaster.Quiescent(e.states[i]); {
	case !ok || wake <= int64(e.round):
		e.enqueue(i)
	case wake != NoWake:
		e.schedule(i, wake)
	}
}

// schedule sets node i's timed wake to round at, moving its heap entry if
// it has one.
//
//ssmst:hotpath
func (e *Engine) schedule(i int32, at int64) {
	if e.wakePos == nil {
		e.armWakes()
	}
	p := e.wakePos[i]
	if p < 0 {
		p = int32(len(e.wakeHeap))
		e.wakeHeap = append(e.wakeHeap, i) // capacity n: one entry per node
		e.wakePos[i] = p
	} else if e.wakeAt[i] == at {
		return
	}
	e.wakeAt[i] = at
	e.siftUp(p)
	e.siftDown(e.wakePos[i])
}

// armWakes allocates the timed-wake heap, with room for one entry per
// node, when a machine first names a wake; a worklist whose machine never
// does (the verifier) carries none.
func (e *Engine) armWakes() {
	n := e.g.N()
	e.wakeHeap = make([]int32, 0, n)
	e.wakePos = make([]int32, n)
	e.wakeAt = make([]int64, n)
	for i := range e.wakePos {
		e.wakePos[i] = -1
	}
}

// popWake removes and returns the node with the earliest pending wake.
//
//ssmst:hotpath
func (e *Engine) popWake() int32 {
	i := e.wakeHeap[0]
	last := int32(len(e.wakeHeap) - 1)
	e.swapWakes(0, last)
	e.wakeHeap = e.wakeHeap[:last]
	e.wakePos[i] = -1
	e.siftDown(0)
	return i
}

// wakeLess orders heap slots by wake round.
func (e *Engine) wakeLess(a, b int32) bool {
	return e.wakeAt[e.wakeHeap[a]] < e.wakeAt[e.wakeHeap[b]]
}

func (e *Engine) swapWakes(a, b int32) {
	h := e.wakeHeap
	h[a], h[b] = h[b], h[a]
	e.wakePos[h[a]], e.wakePos[h[b]] = a, b
}

func (e *Engine) siftUp(p int32) {
	for p > 0 {
		parent := (p - 1) / 2
		if !e.wakeLess(p, parent) {
			return
		}
		e.swapWakes(p, parent)
		p = parent
	}
}

func (e *Engine) siftDown(p int32) {
	n := int32(len(e.wakeHeap))
	for {
		least, l := p, 2*p+1
		if l < n && e.wakeLess(l, least) {
			least = l
		}
		if r := l + 1; r < n && e.wakeLess(r, least) {
			least = r
		}
		if least == p {
			return
		}
		e.swapWakes(p, least)
		p = least
	}
}
