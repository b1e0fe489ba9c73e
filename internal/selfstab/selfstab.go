// Package selfstab implements the paper's second main result (§10): a
// self-stabilizing MST construction with O(log n) bits per node and O(n)
// stabilization time, obtained by the enhanced Awerbuch–Varghese
// Resynchronizer (Theorem 10.3): a construction algorithm Π (SYNC_MST) is
// composed with a self-stabilizing checker (the verification scheme of
// internal/verify); detection triggers a reset and re-execution.
//
// The transformer runs every node through four phases:
//
//	Resync  — a new epoch floods the network; an α-synchronizer pulse
//	          discipline (advance only when no same-epoch neighbour lags)
//	          brings every node into the epoch before anyone exits the
//	          phase (the reset of [13] + the synchronizer of [10,11]).
//	Build   — SYNC_MST runs with an epoch-relative pulse clock. Each node
//	          keeps the current and previous pulse states (the classical
//	          two-slot α-synchronizer), so a neighbour one pulse behind
//	          reads exactly the state it would have seen synchronously.
//	Label   — the marker assigns the proof labels. The distributed marker
//	          is SYNC_MST plus label-writing actions (Lemma 5.4) and three
//	          multi-waves (§6.3); this implementation computes the labels
//	          with an engine-level oracle and charges the phase the
//	          corresponding O(n) rounds (Corollary 6.11) — see README
//	          § "Substitutions".
//	Check   — the verifier runs forever (it is itself self-stabilizing and
//	          asynchrony-tolerant, so it needs no synchronizer); any alarm
//	          starts a new epoch. The embedded verifier is incremental: its
//	          static label verdict is memoized per node, and the transformer
//	          marks every check-relevant composite change (epoch adoption,
//	          phase transitions, the alarm reset) through the engine's
//	          dirty-epoch tracking so the memo invalidates exactly when a
//	          standalone verifier's would.
//
// # Coasting through the pulse phases
//
// Each epoch is a fixed O(N) schedule of pulses, and almost none of them
// changes anything: once the synchronizer has brought a region into
// lockstep, a node's step in resync, build or label only advances its
// pulse. Under the synchronous daemon the Machine is a runtime.CoastStepper
// and NewRunner arms the engine's worklist, so such a node is skipped and
// its pulse advanced in closed form (CoastAdvance adds k pulses).
//
// Skipping is exact by a lockstep argument. Call a step clean when it
// leaves epoch, phase and SYNC_MST registers as they were and the pulse one
// higher. A node whose last step was clean, with every neighbour at its
// epoch, phase and pulse (lockstep), is quiet (Quiescent). Every node marks
// itself changed (View.MarkChanged) after any step in these phases that is
// not clean, and after any change of epoch or phase, which wakes its
// neighbours. So while no neighbour of a quiet node marks, each neighbour
// steps cleanly: the quiet node's next step reads the same epochs, phases
// and registers, every pulse one higher. The synchronizer gate then passes
// again, and SYNC_MST, whose step depends on its round only through a few
// thresholds, computes the same registers from the same inputs — unless the
// round crosses a threshold (syncmst.NextTrigger). The step is therefore
// clean again, and stays so until the node's next timed pulse: a SYNC_MST
// threshold, the phase's last pulse, or the first pulse whose encoding is
// wider (BitSize counts the pulse, and the engine must measure the state
// whose width grows). The quiet state names the round of that pulse as its
// timed wake, and the engine steps it there. The dense engine, stepping
// every node, takes the same clean steps, so the two run bit-identical
// (TestTransformerWorklistParity*, FuzzTransformerParity).
//
// The check phase stays awake: every check-phase node steps every round.
// The asynchronous daemon has no lockstep to exploit and steps densely.
//
// Per the paper's model discussion, the substrate assumes a polynomial
// upper bound N on n (the assumption the paper removes by plugging in
// [1,28]-style size computation); stabilization time is O(N).
package selfstab

import (
	mbits "math/bits"
	"strconv"
	"sync"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// Phase is the transformer's per-node mode.
type Phase uint8

// The transformer phases, in execution order.
const (
	PhaseResync Phase = iota
	PhaseBuild
	PhaseLabel
	PhaseCheck
)

// phaseNames is indexed by Phase; out-of-range values (adversarial states)
// fall back to a code-qualified name in String.
var phaseNames = [...]string{"resync", "build", "label", "check"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "Phase(" + strconv.Itoa(int(p)) + ")"
}

// BitSize is the encoded width of the four-valued phase.
func (p Phase) BitSize() int { return bits.ForEnum(4) }

// SState is the composite per-node state of the transformer.
type SState struct {
	MyID graph.NodeID
	//ssmst:tracked -- the embedded verifier's memo freshness depends on epoch adoption being marked
	Epoch int64
	//ssmst:tracked -- phase transitions change what the check phase reads
	Phase Phase
	Pulse int // synchronizer pulse within the current phase

	Build     *syncmst.State // build state at the current pulse
	BuildPrev *syncmst.State // build state at the previous pulse (α slot)
	Check     *verify.VState

	// wake is the coast memo (Machine.Quiescent): nonzero when the step
	// that wrote this state only advanced its pulse, with its whole closed
	// neighbourhood in lockstep, and then the round at which the node must
	// step again anyway. Simulator-side: no step reads it.
	wake int64 //ssmst:nobits
}

// Clone returns a deep copy without the memos.
func (s *SState) Clone() runtime.State {
	c := *s
	c.wake = 0
	if s.Build != nil {
		c.Build = s.Build.Clone().(*syncmst.State)
	}
	if s.BuildPrev != nil {
		c.BuildPrev = s.BuildPrev.Clone().(*syncmst.State)
	}
	if s.Check != nil {
		c.Check = s.Check.Clone().(*verify.VState)
	}
	return &c
}

// BitSize measures the composite state: the transformer bookkeeping plus
// the live sub-states (two build slots during Build, the verifier during
// Check) — O(log n) in total. Audited field-complete against the struct
// (MyID, Epoch, Phase=2 bits, Pulse, sub-states) when the verifier's
// AlarmCode under-count was fixed. Straight sum, same reasoning as
// train.State.BitSize: this runs for every node every round.
func (s *SState) BitSize() int {
	sub := 0
	if s.Build != nil {
		sub += s.Build.BitSize()
	}
	if s.BuildPrev != nil {
		sub += s.BuildPrev.BitSize()
	}
	if s.Check != nil {
		if c := s.Check.BitSize(); c > sub {
			sub = c
		}
	}
	return bits.ForInt(int64(s.MyID)) +
		bits.ForInt(s.Epoch) +
		s.Phase.BitSize() +
		bits.ForInt(int64(s.Pulse)) +
		sub
}

// InvalidateMemo implements runtime.MemoInvalidator: it drops the coast
// memo, so an injected or topology-touched state steps before it coasts,
// and forwards to the embedded verifier state, since injection through
// SetState/Corrupt (including Runner.InjectCheckFault) may rewrite the very
// labels the verifier's simulator-side caches (static verdict, label
// BitSize, coast certificate) were computed over.
func (s *SState) InvalidateMemo() {
	s.wake = 0
	if s.Check != nil {
		s.Check.InvalidateMemo()
	}
}

// RemapPorts implements runtime.PortRemapper by forwarding to every
// port-carrying sub-state: the build slots (parent/MWOE/proposal ports) and
// the embedded verifier (parent pointer, candidate port). The transformer
// bookkeeping itself is port-free.
func (s *SState) RemapPorts(oldToNew []int) {
	for _, b := range [...]*syncmst.State{s.Build, s.BuildPrev} {
		if b != nil {
			b.RemapPorts(oldToNew)
		}
	}
	if s.Check != nil {
		s.Check.RemapPorts(oldToNew)
	}
}

// Alarm implements runtime.State: the verifier's output during the check
// phase.
func (s *SState) Alarm() bool {
	return s.Phase == PhaseCheck && s.Check != nil && s.Check.AlarmFlag
}

// Done implements runtime.State: whether the node currently outputs a
// stable MST component.
func (s *SState) Done() bool { return s.Phase == PhaseCheck && !s.Alarm() }

var (
	_ runtime.Machine         = (*Machine)(nil)
	_ runtime.CoastStepper    = (*Machine)(nil)
	_ runtime.MemoInvalidator = (*SState)(nil)
	_ runtime.PortRemapper    = (*SState)(nil)
)

// Machine is the transformer register program.
type Machine struct {
	G    *graph.Graph
	N    int // polynomial upper bound on n (README § "Substitutions")
	Mode verify.Mode

	verifier *verify.Machine

	mu     sync.Mutex
	marked map[int64]*verify.Labeled // label oracle, memoized per epoch
	// Snapshot lets the label oracle read the built tree; wired by the
	// Runner after engine construction.
	Snapshot func() []*SState
}

// Verifier exposes the embedded check-phase verifier machine — read-only
// access to its incremental counter StaticRecomputes for tests and
// experiments that pin down the transformer's quiet-round cost.
func (m *Machine) Verifier() *verify.Machine { return m.verifier }

// NewMachine builds the transformer for a graph with bound N ≥ n.
func NewMachine(g *graph.Graph, bound int, mode verify.Mode) *Machine {
	return &Machine{
		G:        g,
		N:        bound,
		Mode:     mode,
		verifier: &verify.Machine{Mode: mode},
		marked:   map[int64]*verify.Labeled{},
	}
}

// Phase durations in pulses, all O(N).
func (m *Machine) resyncDur() int { return 2*m.N + 8 }
func (m *Machine) buildDur() int  { return 46*m.N + 24 }
func (m *Machine) labelDur() int  { return 12*m.N + 8 }

func (m *Machine) phaseDur(p Phase) int {
	switch p {
	case PhaseResync:
		return m.resyncDur()
	case PhaseBuild:
		return m.buildDur()
	case PhaseLabel:
		return m.labelDur()
	}
	return 0
}

// Init is the clean start: every node enters a fresh epoch-0 resync.
func (m *Machine) Init(v *runtime.View) runtime.State {
	return &SState{MyID: v.ID(), Phase: PhaseResync}
}

// machScratch is the transformer's per-View (and therefore per-worker)
// scratch: the reusable adapter views and the embedded verifier scratch.
type machScratch struct {
	bv  buildView
	cv  checkView
	vsc verify.Scratch
}

// ReleaseRefs implements runtime.RefReleaser: the adapters and the verifier
// scratch drop the states they last pointed at, so a parked pool worker
// pins nothing of a dropped engine.
func (sc *machScratch) ReleaseRefs() {
	sc.bv, sc.cv = buildView{}, checkView{}
	sc.vsc.ReleaseRefs()
}

func (m *Machine) scratchOf(v *runtime.View) *machScratch {
	if sc, ok := v.MachineScratch().(*machScratch); ok {
		return sc
	}
	sc := new(machScratch)
	v.SetMachineScratch(sc)
	return sc
}

// recycleBuild deep-copies src into the recycled slot dst (either may be
// nil). It returns nil when src is nil, dropping dst's memory.
func recycleBuild(dst, src *syncmst.State) *syncmst.State {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = new(syncmst.State)
	}
	*dst = *src
	return dst
}

// recycleCheck copies src into the recycled slot dst (either may be nil);
// the copy shares src's immutable label block.
func recycleCheck(dst, src *verify.VState) *verify.VState {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = new(verify.VState)
	}
	dst.CopyFrom(src)
	return dst
}

// Step implements runtime.Machine: the composite next state is written
// into the recycled SState from two steps back, reusing its
// Build/BuildPrev/Check sub-states, so the steady-state round or time unit
// allocates only at phase transitions (and nothing at all once a phase is
// entered). A nil scratch gets a fresh SState whose sub-states are
// allocated as needed.
//
//ssmst:hotpath
func (m *Machine) Step(v *runtime.View, scratch runtime.State) runtime.State {
	dst, ok := scratch.(*SState)
	if !ok || dst == nil {
		dst = new(SState) //ssmst:allow hotpathalloc -- cold: nil scratch (the node's first step) or a foreign state after SetState
	}
	return m.stepInto(v, dst, m.scratchOf(v))
}

// stepInto computes the transformer's next state for one node into dst.
// dst's sub-state memory is recycled; the result never aliases v.Self(),
// any neighbour state, or anything else reachable from the View.
//
// It ends by telling neighbours that skip their steps (Quiescent) what they
// cannot see: a step that changes the epoch or the phase, or that leaves a
// pulse phase's pulse anything but one higher with the same SYNC_MST
// registers, marks the node changed. Those are every change a neighbour's
// step reads, so the marks also keep the embedded verifier's memo exactly
// as fresh as in a standalone run (epoch adoption, phase transitions and
// the alarm reset are among them). A step that only advanced the pulse,
// with every neighbour at this node's epoch, phase and pulse, leaves the
// state quiet until its next timed pulse (wakeRound).
//
//ssmst:hotpath
func (m *Machine) stepInto(v *runtime.View, dst *SState, sc *machScratch) runtime.State {
	old := v.Self().(*SState)
	// Salvage dst's recyclable sub-state memory before the header copy.
	b1, b2, ck := dst.Build, dst.BuildPrev, dst.Check
	if b2 == b1 {
		b2 = nil // adversarial aliasing in an injected state: keep the slots distinct
	}
	*dst = *old
	s := dst
	s.wake = 0
	// Deep-copy the sub-states into the recycled slots (what Clone would
	// do); from here on s shares no memory with old. The sub-state a
	// phase's own hot step overwrites wholesale is deferred to that branch —
	// BuildPrev during Build (the advancing pulse uses its slot as the step
	// destination), Check during Check (the verifier copies the pre-step
	// state itself) — so the dominant steps copy each block exactly once.
	s.Build = recycleBuild(b1, old.Build)
	switch s.Phase {
	case PhaseBuild:
		s.BuildPrev = nil // materialized in the build branch below
		s.Check = recycleCheck(ck, old.Check)
	case PhaseCheck:
		s.BuildPrev = recycleBuild(b2, old.BuildPrev)
		s.Check = nil // materialized in the check branch below
	default:
		s.BuildPrev = recycleBuild(b2, old.BuildPrev)
		s.Check = recycleCheck(ck, old.Check)
	}

	// ---- Epoch adoption: the reset flood. ----
	// The same scan decides lockstep: every neighbour at this node's epoch,
	// phase and pulse.
	deg := v.Degree()
	lockstep := true
	for q := 0; q < deg; q++ {
		nb, ok := v.Neighbour(q).(*SState)
		if !ok {
			lockstep = false
			continue
		}
		if nb.Epoch > s.Epoch {
			s.Epoch = nb.Epoch
			s.Phase = PhaseResync
			s.Pulse = 0
			s.Build, s.BuildPrev, s.Check = nil, nil, nil
		}
		lockstep = lockstep && nb.Epoch == old.Epoch && nb.Phase == old.Phase && nb.Pulse == old.Pulse
	}
	if s.Pulse < 0 || s.Pulse > m.phaseDur(s.Phase)+1 {
		s.Pulse = 0 // corrupted pulse: restart the phase (hygiene)
	}

	switch s.Phase {
	case PhaseResync, PhaseLabel:
		if m.mayAdvance(v, s) {
			s.Pulse++
		}
		if s.Pulse >= m.phaseDur(s.Phase) {
			if s.Phase == PhaseResync {
				s.Phase = PhaseBuild
				s.Pulse = 0
				s.Build = syncmst.NewState(s.MyID)
				s.BuildPrev = nil
			} else {
				s.Phase = PhaseCheck
				s.Pulse = 0
				s.Check = m.installLabels(v.Node(), s)
				s.Build, s.BuildPrev = nil, nil
			}
		}

	case PhaseBuild:
		if s.Build == nil {
			s.Build = syncmst.NewState(s.MyID)
		}
		if m.mayAdvance(v, s) {
			sc.bv.v, sc.bv.s, sc.bv.round = v, s, s.Pulse
			// The recycled previous-pulse slot is the step destination —
			// its deferred copy is never made on this path, since the
			// rotation would discard it anyway; a build pulse copies each
			// block once and allocates nothing at steady state.
			spare := b2
			if spare == nil {
				spare = new(syncmst.State) //ssmst:allow hotpathalloc -- cold: once per node per epoch, when the build slot is first populated
			}
			next := syncmst.StepCoreInto(spare, &sc.bv)
			s.BuildPrev = s.Build
			s.Build = next
			s.Pulse++
		} else {
			s.BuildPrev = recycleBuild(b2, old.BuildPrev)
		}
		if s.Pulse >= m.buildDur() {
			s.Phase = PhaseLabel
			s.Pulse = 0
			// Build states are kept: the label oracle reads them.
		}

	case PhaseCheck:
		// Hold the verifier until the whole neighbourhood has reached the
		// check phase of this epoch (the one-activation skew the
		// synchronizer permits at the phase boundary must not read as a
		// missing neighbour). The early return materializes the deferred
		// Check copy; the state is unchanged, so there is nothing to mark.
		for q := 0; q < deg; q++ {
			nb, ok := v.Neighbour(q).(*SState)
			if !ok || nb.Epoch != s.Epoch || nb.Phase != PhaseCheck {
				s.Check = recycleCheck(ck, old.Check)
				return s
			}
		}
		// The verifier reads the pre-step state straight off the read
		// buffer and writes into this node's recycled block, sharing the
		// immutable label block — the quiet check phase copies no labels
		// and allocates nothing.
		self := old.Check
		if self == nil {
			self = poisonState(s.MyID) // corrupted state: rare, once per corruption
		}
		vdst := ck
		if vdst == nil {
			vdst = new(verify.VState) //ssmst:allow hotpathalloc -- cold: once per node per epoch, on check-phase entry
		}
		sc.cv.v, sc.cv.s, sc.cv.self = v, s, self
		s.Check = m.verifier.StepInto(vdst, &sc.cv, &sc.vsc)
		if s.Check.AlarmFlag {
			// Detection: start a new epoch (the Resynchronizer drops back
			// to re-execution).
			s.Epoch++
			s.Phase = PhaseResync
			s.Pulse = 0
			s.Build, s.BuildPrev, s.Check = nil, nil, nil
		}

	default:
		s.Phase = PhaseResync
		s.Pulse = 0
	}

	switch {
	case s.Epoch != old.Epoch || s.Phase != old.Phase:
		v.MarkChanged()
	case s.Phase == PhaseCheck:
		// The verifier marks its own register changes.
	case old.Pulse < 0 || s.Pulse != old.Pulse+1 || (s.Phase == PhaseBuild && !sameBuild(old.Build, s.Build)):
		v.MarkChanged()
	case lockstep:
		s.wake = m.wakeRound(v.Round(), s)
	}
	return s
}

// sameBuild reports whether two build slots hold the same registers.
func sameBuild(a, b *syncmst.State) bool {
	return a != nil && b != nil && *a == *b
}

// wakeRound is the round at which a quiet node must step again although
// nothing around it changed: the step that starts at the first timed pulse
// at or after s.Pulse. That is the phase's last pulse, in the build phase
// the first SYNC_MST trigger round (syncmst.NextTrigger), and the pulse
// before one with a wider encoding — BitSize counts the pulse, so the
// engine must measure the state whose width grows. r is the round of the
// step that wrote s.
func (m *Machine) wakeRound(r int, s *SState) int64 {
	t := min(m.phaseDur(s.Phase), widerPulse(s.Pulse)) - 1
	if s.Phase == PhaseBuild {
		t = min(t, syncmst.NextTrigger(s.Build, s.Pulse))
	}
	return int64(r) + 1 + int64(t-s.Pulse)
}

// widerPulse returns the least pulse above p ≥ 0 whose encoding
// (bits.ForInt) is wider than p's.
func widerPulse(p int) int { return max(2, 1<<mbits.Len(uint(p))) }

// Quiescent implements runtime.CoastStepper: a quiet state's step, while no
// neighbour marks a change, only advances its pulse — until its wake round.
func (m *Machine) Quiescent(st runtime.State) (int64, bool) {
	s, ok := st.(*SState)
	if !ok || s.wake == 0 {
		return 0, false
	}
	return s.wake, true
}

// CoastAdvance implements runtime.CoastStepper: k quiet steps advance the
// pulse by k and change nothing else.
//
//ssmst:hotpath
//ssmst:coastpure
func (m *Machine) CoastAdvance(st runtime.State, k int) {
	if s, ok := st.(*SState); ok {
		s.Pulse += k
	}
}

// mayAdvance is the α-synchronizer gate: a node advances its pulse only
// when no same-epoch neighbour is behind it (earlier phase, or same phase
// with a smaller pulse). Different-epoch neighbours do not gate — they
// adopt the epoch at their next activation.
func (m *Machine) mayAdvance(v *runtime.View, s *SState) bool {
	deg := v.Degree()
	for q := 0; q < deg; q++ {
		nb, ok := v.Neighbour(q).(*SState)
		if !ok || nb.Epoch != s.Epoch {
			continue
		}
		if nb.Phase < s.Phase {
			return false
		}
		if nb.Phase == s.Phase && nb.Pulse < s.Pulse {
			return false
		}
	}
	return true
}

// installLabels returns the node's verifier state for the tree recorded in
// the oracle for this epoch (poison labels when the built structure is not
// a spanning tree, which makes the verifier reject and rebuild). The state
// shares the oracle's immutable label block.
func (m *Machine) installLabels(node int, s *SState) *verify.VState {
	l := m.oracle(s.Epoch)
	if l == nil {
		return poisonState(s.MyID)
	}
	return l.NodeState(node)
}

// oracle computes (once per epoch) the labels for the currently built tree.
func (m *Machine) oracle(epoch int64) *verify.Labeled {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.marked[epoch]; ok {
		return l
	}
	var l *verify.Labeled
	if m.Snapshot != nil {
		states := m.Snapshot()
		edges := make([]int, 0, max(m.G.N()-1, 0))
		valid := true
		for v, st := range states {
			if st == nil || st.Build == nil {
				valid = false
				break
			}
			if pp := st.Build.ParentPort; pp >= 0 {
				if pp >= m.G.Degree(v) {
					valid = false
					break
				}
				edges = append(edges, m.G.Half(v, pp).Edge)
			}
		}
		// MarkTree rejects an edge set that is not a spanning tree.
		if valid {
			if marked, err := verify.MarkTree(m.G, edges, false); err == nil {
				l = marked.WithoutScaffolding()
			}
		}
	}
	// Memoize (nil = poison); keep the map small.
	//ssmst:allow determinism -- order-invariant pruning: every key below the threshold is deleted
	for e := range m.marked {
		if e < epoch-2 {
			delete(m.marked, e)
		}
	}
	m.marked[epoch] = l
	return l
}

// poisonState is a verifier state that always rejects (installed when the
// built structure was not a spanning tree).
func poisonState(id graph.NodeID) *verify.VState {
	return &verify.VState{MyID: id, ParentPort: -1, L: &verify.NodeLabels{}}
}

// buildView adapts the transformer state to syncmst.NodeView: only
// same-epoch neighbours are visible, and a neighbour that has already
// advanced past this node's pulse exposes its previous-pulse slot — the
// state the node would have read in a synchronous execution.
type buildView struct {
	//ssmst:allow determinism -- per-step adapter built fresh in stepInto; never outlives the step
	v     *runtime.View
	s     *SState
	round int
}

func (b *buildView) ID() graph.NodeID             { return b.v.ID() }
func (b *buildView) Degree() int                  { return b.v.Degree() }
func (b *buildView) Weight(port int) graph.Weight { return b.v.Weight(port) }
func (b *buildView) PeerPort(q int) int           { return b.v.PeerPort(q) }
func (b *buildView) Round() int                   { return b.round }
func (b *buildView) Self() *syncmst.State         { return b.s.Build }
func (b *buildView) Neighbour(port int) *syncmst.State {
	nb, ok := b.v.Neighbour(port).(*SState)
	if !ok || nb.Epoch != b.s.Epoch {
		return nil
	}
	switch {
	case nb.Phase == PhaseBuild && nb.Pulse == b.s.Pulse:
		return nb.Build
	case nb.Phase == PhaseBuild && nb.Pulse == b.s.Pulse+1:
		return nb.BuildPrev
	case nb.Phase == PhaseLabel:
		// The neighbour finished building one pulse ahead (the maximum the
		// gate permits); its previous-pulse slot, preserved through the
		// label phase, is the state this node would have read.
		return nb.BuildPrev
	}
	return nil
}

// checkView adapts the transformer state to verify.NodeView. self is the
// pre-step verifier state (the read-buffer copy, so the in-place path can
// use the node's own composite state as the write destination).
//
// Its change clock forwards to the engine's dirty-epoch tracking: the
// transformer marks every check-relevant composite change (epoch adoption,
// phase transitions, label installation, the alarm reset — see stepInto),
// and fault injection marks through SetState, so the embedded verifier's
// memoized static verdict stays exactly as fresh as in a standalone run.
type checkView struct {
	//ssmst:allow determinism -- per-step adapter built fresh in stepInto; never outlives the step
	v    *runtime.View
	s    *SState
	self *verify.VState
}

func (c *checkView) Degree() int                  { return c.v.Degree() }
func (c *checkView) Weight(port int) graph.Weight { return c.v.Weight(port) }
func (c *checkView) PeerPort(q int) int           { return c.v.PeerPort(q) }
func (c *checkView) Self() *verify.VState         { return c.self }
func (c *checkView) Neighbour(port int) *verify.VState {
	nb, ok := c.v.Neighbour(port).(*SState)
	if !ok || nb.Epoch != c.s.Epoch || nb.Phase != PhaseCheck || nb.Check == nil {
		return nil
	}
	return nb.Check
}
func (c *checkView) StepEpoch() int64 { return int64(c.v.Round()) }
func (c *checkView) LabelsChangedSince(epoch int64) bool {
	return c.v.NeighbourhoodChangedSince(epoch)
}
func (c *checkView) MarkLabelsChanged() { c.v.MarkChanged() }
