// Package runtime implements the paper's execution model (§2.1–2.2, after
// [18,17]): a network of nodes, each holding a bounded number of memory bits
// that are externally visible to its neighbours ("shared registers"). In one
// ideal time unit a node reads the states of all its neighbours and computes
// a new state of its own.
//
// Two daemons are provided:
//
//   - Synchronous: all nodes step simultaneously in rounds; every step reads
//     the neighbour states of the previous round. This is the setting of
//     SYNC_MST (§4) and of the synchronous detection-time bounds.
//
//   - Asynchronous: a randomized weakly-fair daemon activates nodes in an
//     arbitrary interleaving; an activated node reads the *current* states
//     of its neighbours atomically (fine-grained atomicity, per §2.1). One
//     asynchronous time unit normalizes to "every node activated at least
//     once"; optional jitter activates some nodes several times per unit to
//     model delay variance.
//
// The engine supports adversarial state corruption (self-stabilization
// starts from arbitrary states) and instruments rounds, machine steps, and
// the maximum state size in bits, so the paper's complexity claims are
// measured rather than asserted.
//
// # Execution core (see also DESIGN.md in this directory)
//
// Synchronous rounds are double-buffered: the engine owns two persistent
// []State buffers and swaps them each round, so the steady-state round loop
// performs no slice allocation. The buffer being written into holds the
// states of two rounds ago; Machine.Step receives that stale state as
// scratch memory and can recycle it, making the round loop allocation-free
// end to end. A worklist round (Engine.Worklist, see worklist.go) differs
// only in which nodes it steps and how it installs them: both kinds run
// the same chunk body and the same per-node step. So does an asynchronous
// activation: it steps one node into its spare slot and installs it by the
// worklist's per-slot swap, recycling the node's state from two activations
// back.
//
// Invariant (read-previous-round): during round r every View reads only the
// buffer finalized at round r-1. The write buffer is never visible through a
// View, so parallel and serial stepping are bit-identical by construction —
// each next-state is a pure function of (node, round, previous buffer).
//
// Parallel rounds are served by a package-level pool of persistent worker
// goroutines sized by runtime.GOMAXPROCS(0) at first use. A round is
// dispatched by handing the engine to the pool once per participating
// worker; workers claim fixed-size index chunks off a shared atomic cursor
// (dynamic load balancing, deterministic output: node i's next state does
// not depend on which worker computes it). Each worker owns one reusable
// View.
//
// Instrumentation (max state bits, alarm and termination counts) is folded
// into the step loop as per-worker partial reductions merged once per round,
// so AnyAlarm, AllDone and MaxStateBits are O(1) in the common case instead
// of O(n) scans per round. Every state reports its own alarm and
// termination (State.Alarm, State.Done).
//
// The engine additionally tracks per-node dirty epochs for machines that
// memoize part of their step: a machine calls View.MarkChanged when the
// state it writes differs (in its tracked portion — e.g. the verifier's
// label layers) from the node's current state, and SetState/Corrupt mark
// implicitly; a later step asks View.NeighbourhoodChangedSince(epoch) to
// decide whether a verdict memoized at that epoch is still valid. In-round
// marks commit at the round boundary, so the dirty array is frozen during a
// synchronous round and parallel stepping stays bit-identical to serial.
// This is what makes the verifier's round cost proportional to change
// rather than to n (see internal/verify).
//
// The topology itself is mutable between rounds: Engine.MutateTopology
// applies graph mutations (weight changes, link insertion/deletion — the
// paper treats these as first-class faults) and re-syncs every
// topology-derived structure — the CSR snapshot, port-indexed protocol
// state (PortRemapper), per-node memo caches (MemoInvalidator) and the
// dirty epochs of the touched neighbourhoods — so memoizing machines stay
// bit-identical to their full-recheck reference across churn. See DESIGN.md
// § "Live topology".
//
// An Engine is not safe for concurrent use: Step* calls and state accessors
// must be externally serialized. Distinct engines may step concurrently and
// share the worker pool.
package runtime

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"sync"
	"sync/atomic"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
)

// State is the externally visible memory of one node. Implementations must
// be deep-copied by Clone; the engine snapshots states to enforce the
// synchronous read-previous-round semantics. Alarm reports a verifier's
// output "no" (reject, §2.4) and Done the local termination of a
// terminating (non-self-stabilizing) algorithm; a state that has neither
// returns false. The engine reads both after every write, which keeps
// AnyAlarm, AlarmNodes and AllDone O(1). A state returned by Engine.State
// may be recycled by its node's second step after the read (see Machine).
type State interface {
	bits.Sized
	Clone() State
	Alarm() bool
	Done() bool
}

// MemoInvalidator is implemented by states that carry simulator-side memo
// caches of derived measurements (the verifier memoizes the label portion of
// its BitSize, its static verdict and its coast certificate). The engine
// calls InvalidateMemo on every state installed through SetState or Corrupt
// — the injection paths mutate state behind the step function, so any memo
// the state carries may describe content that no longer exists — and on the
// states of every node a topology mutation touched (MutateTopology): a
// changed neighbourhood invalidates verdicts computed over the old one.
// Steps never need it: in-step mutations maintain their own caches.
type MemoInvalidator interface {
	InvalidateMemo()
}

// PortRemapper is implemented by states that store local port numbers
// (parent pointers, candidate ports, MWOE proposals). When a topology
// mutation compacts a node's ports (graph.RemoveEdge shifts every port above
// the removed one down by one), the engine calls RemapPorts on that node's
// states with a table mapping old port → new port, -1 for the removed port,
// so port-indexed protocol state keeps naming the same physical edges. A
// state that does not implement the interface keeps its raw port values —
// under a self-stabilizing machine the resulting inconsistency is an
// ordinary transient fault, detected and repaired, but detection latency and
// FullRecheck parity are only guaranteed for remapping states.
type PortRemapper interface {
	RemapPorts(oldToNew []int)
}

// View is a stepping node's window onto the network: its own identity,
// degree, incident edge weights, and the states of its neighbours. Neighbour
// states are read-only; Step implementations must not mutate them. Views are
// reused across steps and must not be retained past the Step call.
//
// Topology accessors (Degree, Weight, PeerPort, Neighbour) read the graph's
// frozen CSR adjacency (graph.Adj), so a step's neighbour scan streams flat
// arrays instead of chasing per-node slices.
type View struct {
	engine  *Engine
	node    int
	snap    []State // states visible this step (previous round if synchronous)
	scratch any     // per-View machine scratch; see MachineScratch
	pending []int32 // in-round dirty marks (MarkChanged), flushed per round
}

// MachineScratch returns the View's machine-scratch slot: a per-View (and
// therefore per-worker) place where a Machine may park reusable step
// buffers — neighbour lists, contexts, cursors — so that its hot path
// allocates nothing at steady state. The slot belongs to whichever machine
// last used the View: always type-assert the value and install a fresh
// scratch on mismatch (pool workers serve many engines and machines over
// their lifetime). Scratch contents must be recomputed every step; they
// carry memory between steps, never data. A scratch whose buffers keep
// pointers to the states of its last step implements RefReleaser.
func (v *View) MachineScratch() any { return v.scratch }

// SetMachineScratch installs a machine scratch value; see MachineScratch.
func (v *View) SetMachineScratch(s any) { v.scratch = s }

// RefReleaser is implemented by machine scratch values that hold pointers
// into the states of the round they last served. A pool worker calls
// ReleaseRefs when it parks, so a dropped engine's states — and anything
// they share, such as a marked instance's label blocks — are not pinned by
// an idle worker. Capacity may be kept; only references must go.
type RefReleaser interface {
	ReleaseRefs()
}

// parkView drops a pool worker View's references to the engine it served
// and lets the machine scratch release its own.
func parkView(v *View) {
	v.engine, v.snap = nil, nil
	if r, ok := v.scratch.(RefReleaser); ok {
		r.ReleaseRefs()
	}
}

// Node returns the node's simulator index. It is exposed for instrumentation
// only; protocol logic must use ID().
func (v *View) Node() int { return v.node }

// ID returns the node's unique identity.
func (v *View) ID() graph.NodeID { return v.engine.g.ID(v.node) }

// Degree returns the node's degree.
func (v *View) Degree() int {
	a := v.engine.adj
	return int(a.Off[v.node+1] - a.Off[v.node])
}

// Weight returns the weight of the edge at the given local port.
func (v *View) Weight(port int) graph.Weight {
	a := v.engine.adj
	return a.Weight[int(a.Off[v.node])+port]
}

// PeerPort returns the port number that the edge at my local port q carries
// at the far endpoint. Port numbers are edge-local knowledge both endpoints
// share (§2.1).
func (v *View) PeerPort(q int) int {
	a := v.engine.adj
	return int(a.PeerPort[int(a.Off[v.node])+q])
}

// Self returns the node's own current state (read-only).
func (v *View) Self() State { return v.snap[v.node] }

// Neighbour returns the visible state of the neighbour at the given port
// (read-only).
func (v *View) Neighbour(port int) State {
	a := v.engine.adj
	return v.snap[a.Peer[int(a.Off[v.node])+port]]
}

// MarkChanged records that the state this step is writing differs from the
// node's current state in a way downstream memoization cares about (the
// machine chooses what "tracked state" means — the verifier tracks its label
// layers). The mark becomes visible through NeighbourhoodChangedSince only
// when the written state itself becomes visible: at the next round under the
// synchronous daemon (marks made during a round are buffered and committed
// at the round boundary, so parallel and serial stepping observe identical
// dirty epochs), immediately under the asynchronous daemon (which reads
// current states). SetState and Corrupt mark the node implicitly.
//
//ssmst:hotpath
func (v *View) MarkChanged() {
	e := v.engine
	if e.inSyncStep {
		v.pending = append(v.pending, int32(v.node))
		return
	}
	e.bumpDirty(v.node, int64(e.round)+1)
}

// NeighbourhoodChangedSince reports whether the tracked state of this node
// or of any of its neighbours changed after the given epoch — where an
// epoch is a View.Round value, and "changed at epoch r" means the states
// visible at round r differ from those visible at r−1. A machine that
// memoizes a verdict computed at epoch r0 = Round() may keep it as long as
// this reports false for r0.
//
// The scan is O(degree) over the flat dirty-epoch array, with an O(1)
// global high-water fast path that short-circuits the common all-quiet
// case.
//
//ssmst:hotpath
func (v *View) NeighbourhoodChangedSince(epoch int64) bool {
	e := v.engine
	if e.maxDirty <= epoch {
		return false
	}
	if e.dirty[v.node] > epoch {
		return true
	}
	a := e.adj
	lo, hi := a.Off[v.node], a.Off[v.node+1]
	for _, p := range a.Peer[lo:hi] {
		if e.dirty[p] > epoch {
			return true
		}
	}
	return false
}

// Round returns the global round/time-unit counter. Synchronous algorithms
// with simultaneous wake-up (SYNC_MST) may use it as the common clock;
// self-stabilizing protocols must not rely on it.
func (v *View) Round() int { return v.engine.round }

// Machine is a distributed protocol in the register model. Init produces the
// clean-start state of a node (simultaneous wake-up); Step computes the
// node's next state from the view, treating every state in the view as
// immutable.
//
// Step may recycle the memory of scratch, the node's state from two steps
// earlier: two rounds under the synchronous daemon, two activations under
// the asynchronous one. Both daemons write a step into the node's spare
// slot while its current state stays visible, then make it current. Scratch
// is nil at the node's first step after New, and may be of a foreign type
// after SetState or Corrupt. The contract:
//
//   - A nil scratch means a fresh state. The returned value must not depend
//     on the contents of scratch; scratch is a memory recycling hint, never
//     an input.
//   - The returned state must not alias anything reachable from the View
//     (neighbour or self states of the read buffer) other than scratch —
//     except blocks that no step ever writes, which may be shared by
//     reference (the verifier's proof labels).
//   - A state obtained from Engine.State may be recycled by its node's
//     second step after the read: two StepSync calls later, or at the
//     node's second activation, which Jitter can place inside one
//     StepAsync. Callers that need a durable snapshot must Clone.
type Machine interface {
	Init(v *View) State
	Step(v *View, scratch State) State
}

// parallelThreshold is the number of nodes a round must step before
// automatic parallel dispatch engages (Workers > 0 waives it). Measured
// crossover: one pool handoff costs on the order of a few microseconds,
// while a typical Step runs in ~100ns, so fan-out starts paying for itself
// at a few hundred nodes.
const parallelThreshold = 512

// stepChunk is the unit of work claimed off the round cursor: large enough
// to amortize the atomic add, small enough to balance uneven step costs.
// Swept over 32–1024 on a settled n=16384 coast network: the quiet-round
// curve is flat within jitter, so 128 stands on its load-balancing merit —
// at n=4096 with 8 workers it still yields 4 claims per worker for skewed
// detection rounds.
const stepChunk = 128

// Engine executes a Machine over a graph under one of the two daemons.
type Engine struct {
	g   *graph.Graph
	adj *graph.Adj // CSR adjacency snapshot; all View topology reads.
	// topoVersion is the graph version adj (and every per-node memo) was
	// synced at; only MutateTopology advances it, so a mismatch means the
	// graph was mutated some other way (checkTopology).
	topoVersion int64
	machine     Machine
	states      []State
	prev        []State // spare buffer; swapped with states each sync round
	round       int
	rng         *rand.Rand // the asynchronous daemon's activation order

	// Jitter = J in (0, 1) makes the asynchronous daemon activate each node
	// 1+G times per time unit, G geometric with P(G ≥ k) = J^k (mean
	// J/(1−J)), in one shuffled interleaving.
	Jitter float64
	// Parallel enables worker-pool fan-out for synchronous rounds.
	Parallel bool
	// Workers selects a Parallel engine's fan-out. 0 is automatic: a round
	// stepping at least parallelThreshold nodes on a multi-core process
	// fans out over every pool worker (the GOMAXPROCS of the process when
	// the pool was first used, minimum 2). k > 0 fans out every round of
	// at least 2 nodes over min(k, pool size, nodes stepped) workers, on
	// any core count, including a single-core process where it cannot win
	// on wall-clock; k = 1 steps every round on the engine's own View.
	Workers int
	// Worklist enables sparse active-set stepping for synchronous rounds
	// when the machine implements CoastStepper (see worklist.go); machines
	// that do not implement it step dense rounds. The choice is latched by
	// the first synchronous round that arms the worklist: clearing Worklist
	// afterwards, or stepping the armed engine asynchronously, panics.
	Worklist bool

	maxBits int

	// Incremental instrumentation: per-node alarm/termination flags and
	// their population counts, maintained on every state write so the
	// accessors need no per-round O(n) scan.
	alarmed    []bool
	done       []bool
	alarmCount int
	doneCount  int

	// Change tracking: dirty[i] is the last epoch at which node i's tracked
	// state changed (View.MarkChanged, SetState, Corrupt); maxDirty is the
	// global high-water mark. The array is frozen while a synchronous round
	// is in flight — in-round marks buffer in per-View pending lists, merge
	// into pendingDirty, and commit at the round boundary — so concurrent
	// workers read deterministic epochs without atomics.
	dirty        []int64
	maxDirty     int64
	pendingDirty []int32
	inSyncStep   bool

	// Worklist stepping (see worklist.go): the frontier buffers hold the
	// active sets of the current and next sparse round; matT[i] is the round
	// whose end-of-round state states[i] reflects (skipped quiescent nodes
	// lag and are materialized on demand via CoastStepper.CoastAdvance).
	coaster      CoastStepper // non-nil iff machine implements the contract
	frontier     []int32
	nextFrontier []int32
	inFrontier   []bool  // nextFrontier membership (dedup)
	matT         []int64 // nil until the worklist is armed
	stepsTaken   int64
	lastActive   int

	// Timed wakes (see worklist.go): a min-heap of nodes keyed by wakeAt;
	// wakePos[i] is node i's heap slot, -1 while it has no wake pending.
	wakeHeap []int32
	wakePos  []int32
	wakeAt   []int64

	//ssmst:allow determinism -- the engine owns the View lifecycle; this one is re-aimed before every use
	view  View  // reusable View for serial stepping, Init, and async
	order []int // reusable activation-order buffer for StepAsync

	// Per-round state shared with the chunk body (serial or pool workers):
	// the read and write buffers, the worklist round's active set (nil in
	// a dense round) and the claim size (fanOut). stepNode writes into
	// stepNext, which an asynchronous time unit aims at the spare buffer
	// too.
	stepSnap   []State
	stepNext   []State
	stepActive []int32
	stepClaim  int
	cursor     atomic.Int64
	wg         sync.WaitGroup
	mu         sync.Mutex // guards the merge of per-chunk-body reductions
}

// New creates an engine with clean-start states from machine.Init. From
// then on the graph's topology may change only through MutateTopology.
func New(g *graph.Graph, machine Machine, seed int64) *Engine {
	e := &Engine{
		g:           g,
		adj:         g.Adjacency(),
		topoVersion: g.Version(),
		machine:     machine,
		states:      make([]State, g.N()),
		prev:        make([]State, g.N()),
		rng:         rand.New(rand.NewSource(seed)),
		alarmed:     make([]bool, g.N()),
		done:        make([]bool, g.N()),
		dirty:       make([]int64, g.N()),
	}
	e.coaster, _ = machine.(CoastStepper)
	e.view.engine = e
	e.view.snap = e.states
	for i := 0; i < g.N(); i++ {
		e.view.node = i
		e.states[i] = machine.Init(&e.view)
		e.noteState(i)
	}
	return e
}

// PoolWorkers returns the size of the shared synchronous worker pool,
// derived from runtime.GOMAXPROCS(0) at first use (minimum 2, so the
// parallel path stays exercisable on single-core machines). Setting
// Workers to it makes a Parallel engine fan out over the whole pool at any
// n.
func PoolWorkers() int {
	ensurePool()
	return pool.size
}

// G returns the underlying graph.
func (e *Engine) G() *graph.Graph { return e.g }

// Round returns the number of completed rounds/time units.
func (e *Engine) Round() int { return e.round }

// MaxStateBits returns the maximum BitSize observed on any node at any time.
func (e *Engine) MaxStateBits() int { return e.maxBits }

// State returns node v's current state (read-only; see Machine for the
// lifetime caveat of recycled states). Under worklist stepping a skipped
// node's lagged clockwork is materialized before the state is returned, so
// observers never see a lagged state. A step may call it too (selfstab's
// label oracle reads every node): during a round it returns the state the
// round reads, and it materializes only nodes outside every stepping
// node's neighbourhood, which the round does not read; concurrent calls
// from steps must be serialized by the machine.
func (e *Engine) State(v int) State {
	if e.matT != nil && e.matT[v] < int64(e.round) {
		e.materialize(v, int64(e.round))
	}
	return e.states[v]
}

// SetState overwrites node v's state; used for adversarial initialization
// and fault injection. The node is marked dirty one epoch past the current
// round — not at it — so that memoizing machines unconditionally re-check
// it and its neighbourhood on their next step, even if the installed state
// carries a memo stamped at this very epoch by a foreign run (the mark must
// compare strictly greater than any stamp the state could legally hold).
// States carrying simulator-side memo caches (MemoInvalidator) are
// invalidated before the instrumentation re-measures them, so e.g. a
// BitSize memoized over content the injection just rewrote is never read.
func (e *Engine) SetState(v int, s State) {
	if mi, ok := s.(MemoInvalidator); ok {
		mi.InvalidateMemo()
	}
	e.states[v] = s
	if e.matT != nil {
		e.matT[v] = int64(e.round) // the installed state is current by fiat
	}
	e.noteState(v)
	e.bumpDirty(v, int64(e.round)+1)
}

// bumpDirty raises node v's dirty epoch (monotone max).
//
//ssmst:hotpath
func (e *Engine) bumpDirty(v int, epoch int64) {
	if e.inFrontier != nil {
		e.wakeNeighbourhood(v)
	}
	if epoch > e.dirty[v] {
		e.dirty[v] = epoch
	}
	if epoch > e.maxDirty {
		e.maxDirty = epoch
	}
}

// flushMarks drains a View's in-round dirty marks into the engine's commit
// list. Parallel rounds call it under the reduction mutex; the serial round
// calls it directly.
//
//ssmst:hotpath
func (e *Engine) flushMarks(v *View) {
	if len(v.pending) == 0 {
		return
	}
	e.pendingDirty = append(e.pendingDirty, v.pending...)
	v.pending = v.pending[:0]
}

// commitMarks publishes the round's buffered dirty marks; called after the
// round counter has advanced, so the marks carry the epoch at which the
// newly written states became visible.
//
//ssmst:hotpath
func (e *Engine) commitMarks() {
	if len(e.pendingDirty) == 0 {
		return
	}
	epoch := int64(e.round)
	for _, i := range e.pendingDirty {
		e.bumpDirty(int(i), epoch)
	}
	e.pendingDirty = e.pendingDirty[:0]
}

// Corrupt applies an adversarial mutation to node v's state.
func (e *Engine) Corrupt(v int, f func(State) State) {
	e.SetState(v, f(e.State(v).Clone()))
}

// MutateTopology applies a topology mutation — graph.SetWeight, AddEdge,
// RemoveEdge, or any combination — to the engine's graph between rounds and
// re-syncs the engine with exactly the changes f applied (graph.Record). In
// the paper's model a link insertion, deletion or weight change is just
// another fault the network must detect and recover from; this is the only
// way an engine's topology may change. After a mutation made any other way
// — directly on the graph, or through another engine sharing it — the
// engine's next round or MutateTopology call panics. Must not be called
// while a Step* is in flight. An error from f is returned after re-syncing
// whatever f already applied. Per applied change it:
//
//   - replays the lagged coast clockwork of the endpoints (worklist
//     stepping) on their states as they coasted;
//   - re-fetches the CSR adjacency snapshot (stale Off/Peer arrays are
//     never read again);
//   - remaps port-indexed state at endpoints whose ports were compacted
//     (PortRemapper), in both state buffers;
//   - drops the touched nodes' simulator-side memos (MemoInvalidator) and
//     re-measures them (bit high-water, alarm/termination flags);
//   - bumps the endpoints' dirty epochs past the current round, exactly as
//     SetState does, so memoizing machines re-check the changed
//     neighbourhoods on their next step while the rest of the network keeps
//     replaying its verdicts.
func (e *Engine) MutateTopology(f func(*graph.Graph) error) error {
	e.checkTopology()
	changes, err := e.g.Record(f)
	if e.matT != nil {
		// Replay lagged coast clockwork for every node the mutation touched
		// before the port remap and memo drop below rewrite its states: the
		// lag accrued on the state as it coasted.
		T := int64(e.round)
		for _, c := range changes {
			e.materialize(c.U, T)
			e.materialize(c.V, T)
		}
	}
	e.adj = e.g.Adjacency()
	epoch := int64(e.round) + 1
	for _, c := range changes {
		if c.Kind == graph.EdgeRemoved {
			e.remapPorts(c.U, c.PortU, c.OldDegU)
			e.remapPorts(c.V, c.PortV, c.OldDegV)
		}
		e.touchTopology(c.U, epoch)
		e.touchTopology(c.V, epoch)
	}
	e.topoVersion = e.g.Version()
	return err
}

// checkTopology panics when the graph changed since the engine last synced
// with it: the CSR snapshot, port-indexed state and memos would describe a
// topology that no longer exists.
func (e *Engine) checkTopology() {
	if e.g.Version() != e.topoVersion {
		panic("runtime: the engine's graph was mutated outside Engine.MutateTopology; apply topology changes through MutateTopology")
	}
}

// touchTopology marks node v as changed by a topology mutation: dirty past
// the current round, memos dropped in both buffers, instrumentation
// re-measured.
func (e *Engine) touchTopology(v int, epoch int64) {
	e.bumpDirty(v, epoch)
	for _, s := range [2]State{e.states[v], e.prev[v]} {
		if mi, ok := s.(MemoInvalidator); ok {
			mi.InvalidateMemo()
		}
	}
	e.noteState(v)
}

// remapPorts rewrites port-indexed state at node v after the removal of
// port removed (old degree oldDeg): ports above it shifted down by one.
// Both state buffers are remapped — the spare buffer's state is recycled as
// scratch two rounds later and must not resurrect a stale port through the
// memo-hit fast path.
func (e *Engine) remapPorts(v, removed, oldDeg int) {
	if oldDeg <= 0 {
		return
	}
	m := make([]int, oldDeg)
	for q := range m {
		switch {
		case q < removed:
			m[q] = q
		case q == removed:
			m[q] = -1
		default:
			m[q] = q - 1
		}
	}
	for _, s := range [2]State{e.states[v], e.prev[v]} {
		if pr, ok := s.(PortRemapper); ok {
			pr.RemapPorts(m)
		}
	}
}

// noteState refreshes the incremental instrumentation for node v's current
// state: bit high-water mark, alarm and termination flags and counts.
func (e *Engine) noteState(v int) {
	s := e.states[v]
	if b := s.BitSize(); b > e.maxBits {
		e.maxBits = b
	}
	dAlarm, dDone := e.noteFlags(v, s)
	e.alarmCount += dAlarm
	e.doneCount += dDone
}

// noteFlags sets node i's alarm and termination flags from its state s and
// returns the flips of the two population counts, which the caller adds.
//
//ssmst:hotpath
func (e *Engine) noteFlags(i int, s State) (dAlarm, dDone int) {
	if a := s.Alarm(); a != e.alarmed[i] {
		e.alarmed[i] = a
		dAlarm = flip(a)
	}
	if d := s.Done(); d != e.done[i] {
		e.done[i] = d
		dDone = flip(d)
	}
	return dAlarm, dDone
}

// flip is the population-count change of a per-node flag that just became
// b: +1 when raised, −1 when cleared.
func flip(b bool) int {
	if b {
		return 1
	}
	return -1
}

// stepNode computes node i's next state into stepNext, recycling the
// state the slot held, refreshes its alarm and termination flags, and
// returns its bit size and the flips of those flags for the caller's
// partial reduction: every round adjusts the population counts by flips
// instead of re-counting them.
//
//ssmst:hotpath
func (e *Engine) stepNode(v *View, i int) (bitSize, dAlarm, dDone int) {
	v.node = i
	s := e.machine.Step(v, e.stepNext[i])
	e.stepNext[i] = s
	dAlarm, dDone = e.noteFlags(i, s)
	return s.BitSize(), dAlarm, dDone
}

// fanOut returns how many pool workers a round stepping count nodes should
// occupy — 1 means the round runs serially on the engine's own View — and
// how many nodes a worker claims off the cursor at a time. Fan-out needs
// Parallel. With Workers = 0 it also needs at least parallelThreshold nodes
// on a multi-core process (on one core it cannot win), and it uses every
// pool worker up to the round's number of stepChunk claims. Workers = k > 0
// fans out over min(k, pool size, count) workers unconditionally, each
// claiming ⌈count/workers⌉ nodes at a time, at most stepChunk, so that even
// a round of a few nodes is split across the workers.
func (e *Engine) fanOut(count int) (workers, claim int) {
	if !e.Parallel || (e.Workers == 0 && count < parallelThreshold) {
		return 1, stepChunk
	}
	ensurePool()
	if e.Workers > 0 {
		w := min(pool.size, e.Workers, count)
		return w, min(stepChunk, (count+w-1)/w)
	}
	if pool.cores < 2 {
		return 1, stepChunk
	}
	return min(pool.size, (count+stepChunk-1)/stepChunk), stepChunk
}

// StepSync executes one synchronous round: every stepped node reads the
// previous round's states and all updates apply simultaneously. A dense
// round steps all n nodes and swaps the two state buffers; a worklist
// round (Worklist set and the machine a CoastStepper, see worklist.go)
// steps only the frontier and installs each stepped node by per-slot swap.
// Both run the same chunk body, serially or on the worker pool, and no
// allocation happens in the steady state.
func (e *Engine) StepSync() {
	e.checkTopology()
	var active []int32 // the worklist round's active set; nil in a dense round
	count := e.g.N()
	if e.Worklist && e.coaster != nil {
		active = e.takeFrontier()
		count = len(active)
	} else if e.matT != nil {
		panic("runtime: Engine.Worklist cleared after the worklist was armed; the choice is latched")
	}
	e.lastActive = count
	if count == 0 {
		// All-quiet round: the clock advances, nothing is stepped. Skipped
		// clockwork accrues lag and is replayed on demand.
		e.round++
		e.commitMarks()
		return
	}
	e.stepSnap, e.stepNext, e.stepActive = e.states, e.prev, active
	e.inSyncStep = true
	e.cursor.Store(0)
	w, claim := e.fanOut(count)
	e.stepClaim = claim
	if w > 1 {
		e.wg.Add(w)
		for i := 0; i < w; i++ {
			pool.jobs <- e
		}
		e.wg.Wait()
	} else {
		e.runChunks(&e.view)
	}
	e.inSyncStep = false
	if active == nil {
		e.states, e.prev = e.stepNext, e.stepSnap
	} else {
		e.installActive(active)
	}
	e.stepSnap, e.stepNext, e.stepActive = nil, nil, nil
	e.round++
	e.stepsTaken += int64(count)
	e.commitMarks() // under worklist stepping, wakes the marks' neighbourhoods
	for _, i := range active {
		e.requeue(i)
	}
}

// runChunks is the stepping body of one synchronous round, run serially on
// the engine's View or once per participating pool worker: claim
// fixed-size ranges of the round's node sequence (all n nodes, or the
// worklist round's active set) off the shared cursor until the round is
// exhausted, then merge this body's partial reduction.
func (e *Engine) runChunks(v *View) {
	v.engine, v.snap = e, e.stepSnap
	active, n, claim := e.stepActive, len(e.stepSnap), e.stepClaim
	if active != nil {
		n = len(active)
	}
	localMax, dAlarm, dDone := 0, 0, 0
	for {
		lo := int(e.cursor.Add(int64(claim))) - claim
		if lo >= n {
			break
		}
		hi := min(lo+claim, n)
		for k := lo; k < hi; k++ {
			i := k
			if active != nil {
				i = int(active[k])
			}
			b, da, dd := e.stepNode(v, i)
			if b > localMax {
				localMax = b
			}
			dAlarm += da
			dDone += dd
		}
	}
	e.mu.Lock()
	if localMax > e.maxBits {
		e.maxBits = localMax
	}
	e.alarmCount += dAlarm
	e.doneCount += dDone
	e.flushMarks(v)
	e.mu.Unlock()
}

// pool is the shared synchronous worker pool: persistent goroutines, each
// owning one reusable View, parked on the jobs channel between rounds. A
// round is dispatched by sending the engine once per participating worker.
var pool struct {
	once  sync.Once
	size  int
	cores int // GOMAXPROCS at first use, before the minimum-2 floor
	jobs  chan *Engine
}

func ensurePool() {
	pool.once.Do(func() {
		pool.cores = gort.GOMAXPROCS(0)
		size := pool.cores
		if size < 2 {
			size = 2
		}
		pool.size = size
		pool.jobs = make(chan *Engine, size)
		for i := 0; i < size; i++ {
			go func() {
				var v View
				for e := range pool.jobs {
					e.runChunks(&v)
					// Drop the engine references before parking so a
					// discarded engine's full state buffer is not pinned for
					// the process lifetime. The machine scratch survives —
					// reusing it across rounds is what keeps machine steps
					// allocation-free — but releases the states its
					// temporaries last pointed at (RefReleaser): with labels
					// shared by reference, one pinned state would pin its
					// engine's whole marked instance.
					parkView(&v)
					e.wg.Done()
				}
			}()
		}
	})
}

// StepAsync executes one asynchronous time unit: every node is activated at
// least once, in a random interleaving, each activation reading current
// states. With Jitter = J > 0, each node gets a geometric number of extra
// activations (mean J/(1−J)) shuffled into the same interleaving, so a unit
// averages n/(1−J) activations. An activation is the synchronous rounds'
// per-node step (stepNode) into the node's spare slot, installed at once by
// per-slot swap, so it recycles the node's state from two activations back
// and the steady-state time unit allocates nothing. The activation-order buffer is reused across
// time units.
func (e *Engine) StepAsync() {
	if e.matT != nil {
		panic("runtime: StepAsync on an engine whose worklist is armed; worklist stepping is synchronous only")
	}
	e.checkTopology()
	n := e.g.N()
	order := e.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	e.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	if e.Jitter > 0 {
		for i := 0; i < n; i++ {
			for e.rng.Float64() < e.Jitter {
				order = append(order, i)
			}
		}
		e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	e.order = order
	v := &e.view
	v.snap, e.stepNext = e.states, e.prev
	for _, i := range order {
		b, dAlarm, dDone := e.stepNode(v, i)
		e.install(i)
		if b > e.maxBits {
			e.maxBits = b
		}
		e.alarmCount += dAlarm
		e.doneCount += dDone
	}
	e.stepNext = nil
	e.stepsTaken += int64(len(order))
	e.round++
}

// Step advances one time unit under the selected daemon.
func (e *Engine) Step(async bool) {
	if async {
		e.StepAsync()
	} else {
		e.StepSync()
	}
}

// AnyAlarm reports whether any node currently raises an alarm, and the index
// of the first such node (-1 if none). The no-alarm case is O(1).
//
//ssmst:hotpath
func (e *Engine) AnyAlarm() (int, bool) {
	if e.alarmCount == 0 {
		return -1, false
	}
	for i, a := range e.alarmed {
		if a {
			return i, true
		}
	}
	return -1, false
}

// AlarmNodes returns all nodes currently raising an alarm in a fresh slice.
// The no-alarm case is O(1) and allocation-free; otherwise it is one O(n)
// scan, so loops that poll every round use AnyAlarm and collect the nodes
// once, at detection.
func (e *Engine) AlarmNodes() []int {
	if e.alarmCount == 0 {
		return nil
	}
	nodes := make([]int, 0, e.alarmCount)
	for i, a := range e.alarmed {
		if a {
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// AllDone reports whether every node's state signals termination. O(1).
func (e *Engine) AllDone() bool {
	return e.doneCount == e.g.N()
}

// RunUntil steps the engine (synchronously if async is false) until pred
// holds or maxRounds elapse. It returns the number of rounds executed and
// whether pred held.
func (e *Engine) RunUntil(async bool, maxRounds int, pred func(*Engine) bool) (int, bool) {
	start := e.round
	for e.round-start < maxRounds {
		if pred(e) {
			return e.round - start, true
		}
		e.Step(async)
	}
	return e.round - start, pred(e)
}

// RunSyncRounds advances exactly k synchronous rounds.
func (e *Engine) RunSyncRounds(k int) {
	for i := 0; i < k; i++ {
		e.StepSync()
	}
}

// String summarizes the engine for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{n=%d round=%d maxBits=%d}", e.g.N(), e.round, e.maxBits)
}
