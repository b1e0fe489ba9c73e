package runtime

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
// per-node clockwork (CoastAdvance with k=1) — and provides the k-round
// closed form of that clockwork. The verifier's coast regime (certified
// static verdict, trains at rest, starved sampler sweep; see
// internal/verify/coast.go) implements it.
//
// The engine side seeds the frontier from the same dirty-epoch journal that
// powers incremental verification:
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
// Skipping is sound because it is exactly the machine's own coast branch:
// the dense engine steps a quiescent node by running CoastAdvance(s, 1)
// inside the machine step, the sparse engine runs CoastAdvance(s, k) once
// on re-activation (or on read). Both trajectories are the same function of
// the same inputs, so verdicts, detection rounds, alarm traces and
// MaxStateBits are bit-identical by construction — locked by the
// differential parity suite and fuzz battery in internal/verify.
//
// Lazy materialization: states[i] of a skipped node reflects the end of
// round matT[i] ≤ round. Before a round, every active node and every
// skipped neighbour of an active node is materialized to the current round,
// so machine steps always read fullsweep-equivalent values; Engine.State
// materializes on read, so external observers never see a lagged state.
// CoastStepper states must keep BitSize constant while quiescent (the
// verifier memoizes a width-complete coast footprint), so the bit
// high-water mark needs no per-round re-measurement of skipped nodes.
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
// (Engine.Worklist). Quiescent reports whether node i's state s is in the
// machine's coast regime: stepping it under an unchanged neighbourhood is
// exactly one CoastAdvance tick (k=1), it raises no alarm, and its BitSize
// is constant. CoastAdvance advances the coast clockwork of node's state s
// by k rounds, in place, in O(1) — wraps and resets replayed algebraically,
// never iterated; deg is the node's degree.
type CoastStepper interface {
	Quiescent(s State) bool
	CoastAdvance(s State, deg, k int)
}

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
	a := e.adj
	deg := int(a.Off[i+1] - a.Off[i])
	e.coaster.CoastAdvance(e.states[i], deg, int(k))
}

// takeFrontier arms the worklist on first use and takes this round's active
// set, materialized to the current round together with its read halo
// (every skipped neighbour of an active node), so machine steps read
// fullsweep-equivalent values. Enqueues made during the round target the
// next frontier.
func (e *Engine) takeFrontier() []int32 {
	e.ensureWorklist()
	T := int64(e.round)
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
