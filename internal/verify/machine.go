package verify

import (
	"strconv"
	"sync/atomic"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/labeling"
	"ssmst/internal/runtime"
	"ssmst/internal/train"
)

// Mode selects the comparison protocol: the synchronous opportunistic
// sampler of §7.2.1 or the asynchronous Want-based handshake of §7.2.2.
type Mode int

// The two network models.
const (
	Sync Mode = iota
	Async
)

// VState is the register content of one verifier node: the component
// (parent pointer — the structure under verification), the label block,
// the two train states, and the sampler.
//
// Ports, the sampler's index and timers and the memoized widths are stored
// in 32 bits: each holds a port, an index into J(v), a level, or a timer
// bounded by a label-derived window or budget. The step widens them to int
// wherever they meet a label, the budget, the dwell window or a round lag,
// and stores only results inside those bounds, so no comparison or closed
// form is evaluated in 32 bits; BitSize charges the stored values' widths.
// The fields are ordered so that the struct packs into 304 bytes, inside
// Go's 320-byte size class (TestStateFootprint): every node holds one
// VState in each engine buffer.
type VState struct {
	MyID graph.NodeID
	// L is the node's proof-label block. It is immutable once marked and
	// shared by reference: the marker's Labeled.Labels entry, both engine
	// buffers and every header copy (CopyFrom) point at the same block. To
	// change a label, mutate a Clone (which copies the block) and commit it
	// with SetState.
	//
	//ssmst:tracked -- the label block: the static verdict and labelBits memos derive from it
	//ssmst:shared -- immutable, shared by every copy of the state: hot paths never write through it
	L *NodeLabels

	TopS train.State
	BotS train.State

	// Ask/Show sampler (§7.2). Show is the trains' Down buffers.
	AskPiece hierarchy.Piece
	Want     train.Want

	//ssmst:tracked -- the component claim: the memoized static verdict derives from it
	ParentPort int32 // the component c(v): -1 claims root

	AskIdx    int32 // index into the node's level list J(v)
	AskTimer  int32
	CapTimer  int32
	ServerCur int32 // asynchronous mode: round-robin server cursor
	ServerTmr int32
	// CandPort is the port of the candidate edge of the fragment currently
	// being asked about, captured together with AskPiece (-1 when v is not
	// the candidate's inside endpoint). The candidate function is a pure
	// function of (labels, level), so it is evaluated once per dwell window
	// instead of once per round; like every sampler register it stabilizes
	// within one Ask sweep after arbitrary corruption.
	CandPort int32
	AskValid bool

	AlarmFlag bool // recomputed every round: the verifier's "no" output
	// AlarmCode records which layer raised the current alarm (AlarmNone when
	// quiet); exposed for experiments and diagnostics.
	AlarmCode AlarmCode

	// The coast block (see coast.go): coasting marks the certified-quiescent
	// regime — the node's step is pure clockwork until a tracked
	// neighbourhood change melts it. It is a protocol mode flag and is
	// counted in BitSize. The certificate is stamped at staticEpoch: freeze
	// runs in the round the static memo is stamped, and no coasting step
	// moves the stamp. coastBits is the memoized orbit-maximum BitSize
	// reported while coasting (coastFootprint).
	coasting  bool
	coastBits int32 //ssmst:nobits

	// The static-verdict memo (incremental verification; see the package
	// doc): the static label checks — neighbour presence, SP, size,
	// hierarchy strings, train position labels — are a deterministic
	// function of the labels of the closed neighbourhood, which change only
	// under faults and label (re)installation; their verdict is computed
	// once and replayed until the engine's change tracking
	// (runtime.View.MarkChanged / NeighbourhoodChangedSince) reports a
	// neighbourhood label change. staticEpoch is the View.Round the verdict
	// was computed or last replayed at, and the coast certificate's stamp;
	// staticWindow caches the label-derived Ask dwell
	// window alongside it. A simulator-side memo of a recomputable
	// predicate, not protocol memory — the verifier's outputs are
	// bit-identical with memoization disabled (Machine.FullRecheck;
	// TestIncrementalMatchesFullRecheck) — so BitSize excludes it.
	staticWindow int32     //ssmst:nobits
	staticEpoch  int64     //ssmst:nobits
	staticValid  bool      //ssmst:nobits
	staticAlarm  bool      //ssmst:nobits
	staticCode   AlarmCode //ssmst:nobits

	// labelBits caches NodeLabels.BitSize — re-measured by the engine's
	// instrumentation every round at every node, yet constant between label
	// changes. Same lifetime and exclusion as the static memo.
	labelBitsOK bool  //ssmst:nobits
	labelBits   int32 //ssmst:nobits
}

// AlarmCode identifies the verifier layer that raised an alarm.
type AlarmCode uint8

// Alarm attribution codes.
const (
	AlarmNone AlarmCode = iota
	AlarmNeighbour
	AlarmSP
	AlarmSize
	AlarmStrings
	AlarmTrainLabels
	AlarmCoverageStatic
	AlarmTrainCycle
	AlarmSampler
	numAlarmCodes
)

// alarmCodeNames is hoisted to package level: String runs inside experiment
// hot loops, and a per-call slice literal allocates.
var alarmCodeNames = [numAlarmCodes]string{
	"none", "neighbour", "sp", "size", "strings", "trainlabels", "coverage", "traincycle", "sampler",
}

// BitSize is the encoded width of the alarm attribution code, which lives
// in node memory like the flag it refines.
func (c AlarmCode) BitSize() int { return bits.ForEnum(int(numAlarmCodes)) }

func (c AlarmCode) String() string {
	if int(c) < len(alarmCodeNames) {
		return alarmCodeNames[c]
	}
	return "AlarmCode(" + strconv.Itoa(int(c)) + ")"
}

// Alarm implements runtime.State: the verifier's "no" output.
func (s *VState) Alarm() bool { return s.AlarmFlag }

// Done implements runtime.State: the verifier runs forever.
func (s *VState) Done() bool { return false }

// Clone returns a deep copy, labels included: it is the single
// copy-on-write point of the shared label block, so a fault mutates a
// Clone and commits it through SetState. The memos are dropped rather than
// copied (they are recomputable caches).
func (s *VState) Clone() runtime.State {
	c := *s
	c.L = s.L.Clone()
	c.InvalidateMemo()
	return &c
}

// InvalidateMemo implements runtime.MemoInvalidator: it drops every
// simulator-side memo the state carries — the static verdict, the cached
// label BitSize and the coast certificate — so content installed or
// mutated behind the step function is re-measured and re-checked from
// scratch. Protocol-visible fields are untouched.
func (s *VState) InvalidateMemo() {
	s.staticValid = false
	s.labelBits = 0
	s.labelBitsOK = false
	// Injected, cloned or topology-touched states start awake: the coast
	// certification was computed over content that may no longer exist.
	// The gated verdict content (staticAlarm/staticCode/staticWindow,
	// staticEpoch) stays, unreachable behind staticValid.
	s.coasting = false
	s.coastBits = 0
}

// RemapPorts implements runtime.PortRemapper: after a topology mutation
// compacts this node's ports, the port-indexed protocol state — the parent
// pointer and the captured candidate port — is moved along with the edges
// it names (-1 when the named edge itself was removed: a cut parent edge
// makes the node claim root, which the SP checks then reject — exactly the
// paper's treatment of a lost tree link). The asynchronous server sweep is
// restarted instead of remapped (ServerCur/ServerTmr/Want reset, mirroring
// advanceLevel): a stale cursor would skip the shifted neighbour's
// comparison for a whole Ask cycle and a pending Want could keep naming a
// neighbour no longer at the cursor. The simulator-side memos are dropped
// along with it: the static verdict was computed over the old
// neighbourhood.
func (s *VState) RemapPorts(oldToNew []int) {
	if pp := int(s.ParentPort); pp >= 0 && pp < len(oldToNew) {
		s.ParentPort = int32(oldToNew[pp])
	}
	if cp := int(s.CandPort); cp >= 0 && cp < len(oldToNew) {
		s.CandPort = int32(oldToNew[cp])
	}
	s.ServerCur = 0
	s.ServerTmr = 0
	s.Want = train.Want{}
	s.InvalidateMemo()
}

// CopyFrom makes s a header copy of src — the in-place counterpart of
// Clone. The label block is shared, not copied: labels are immutable. The
// memos derived from it (the static verdict, labelBits) are values and
// travel with the header.
//
//ssmst:hotpath
func (s *VState) CopyFrom(src *VState) { *s = *src }

// BitSize measures the node's full memory: labels, trains and sampler.
// Every stored field is counted — including the alarm attribution code,
// which lives in node memory like the flag it refines (omitting it would
// under-report the paper's compactness measurement). The label term is
// memoized on the state: the engine re-measures every node every round,
// but labels change only under faults and label installation, so the
// O(log n) label walk is paid once per label change instead of once per
// round (every mutation path resets the memo — see InvalidateMemo).
// Straight sum, same reasoning as train.State.BitSize: this runs for every
// node every round. Each flag is counted through bits.Flag (inlined to 1) so
// bitsizeaudit can tie the accounting to the fields.
//
//ssmst:hotpath
func (s *VState) BitSize() int {
	if s.coasting && s.coastBits > 0 {
		// Coast mode: report the memoized orbit maximum (coastFootprint).
		// Constant while coasting, so a worklist engine that measures only
		// at certification and wake sees the same high-water mark as the
		// dense engine re-measuring every round.
		return int(s.coastBits)
	}
	return bits.Flag(s.AskValid) + bits.Flag(s.Want.Valid) + bits.Flag(s.AlarmFlag) +
		bits.Flag(s.coasting) +
		s.AlarmCode.BitSize() +
		bits.ForInt(int64(s.MyID)) +
		bits.ForInt(int64(s.ParentPort)) +
		s.labelWidth() +
		s.TopS.BitSize() +
		s.BotS.BitSize() +
		bits.ForInt(int64(s.AskIdx)) +
		s.AskPiece.BitSize() +
		bits.ForInt(int64(s.AskTimer)) +
		bits.ForInt(int64(s.CapTimer)) +
		bits.ForInt(int64(s.ServerCur)) +
		bits.ForInt(int64(s.ServerTmr)) +
		bits.ForInt(int64(s.Want.ServerID)) + bits.ForInt(int64(s.Want.Level)) +
		bits.ForInt(int64(s.CandPort))
}

// labelWidth returns NodeLabels.BitSize through the labelBits memo.
func (s *VState) labelWidth() int {
	if !s.labelBitsOK {
		s.labelBits = int32(s.L.BitSize())
		s.labelBitsOK = true
	}
	return int(s.labelBits)
}

var (
	_ runtime.Machine         = (*Machine)(nil)
	_ runtime.CoastStepper    = (*Machine)(nil)
	_ runtime.MemoInvalidator = (*VState)(nil)
	_ runtime.PortRemapper    = (*VState)(nil)
)

// NodeView is the window one verifier step needs; the self-stabilizing
// transformer of internal/selfstab adapts its own composite state to it.
//
// Its last three methods are the change clock that powers incremental
// verification: StepEpoch is the current read-buffer epoch,
// LabelsChangedSince reports whether the tracked (label) state of the node
// or any neighbour changed after a given epoch, and MarkLabelsChanged
// records that this step is itself mutating the node's labels (the
// corrupted-ParentPort repair).
type NodeView interface {
	Degree() int
	Weight(port int) graph.Weight
	PeerPort(q int) int
	Self() *VState
	// Neighbour returns the neighbour's verifier state, nil if that node is
	// not currently running the verifier.
	Neighbour(port int) *VState
	StepEpoch() int64
	LabelsChangedSince(epoch int64) bool
	MarkLabelsChanged()
}

// Machine is the verifier register program.
type Machine struct {
	Mode    Mode
	Labeled *Labeled // consumed by Init only

	// FullRecheck disables static-verdict memoization: every round
	// re-checks all label layers from scratch. This is the reference
	// configuration incremental runs are measured against and compared to
	// (the two are bit-identical in every protocol-visible field).
	FullRecheck bool

	// coast runs the coast regime (see coast.go): trains park after a quiet
	// horizon and certified nodes freeze into pure clockwork, giving a
	// worklist engine an O(active + Δ) quiet round. NewWorklistRunner, its
	// one production setter, sets it on a synchronous machine with
	// memoization on — the regime needs both.
	coast bool

	// staticRecomputes counts static-layer recomputations (memo misses)
	// across all nodes and rounds — the observable that incremental tests
	// pin down ("a quiet network recomputes n times total, not n per
	// round"). Atomic: parallel workers bump it only on the rare miss path.
	staticRecomputes atomic.Int64
}

// StaticRecomputes returns how many times any node recomputed the static
// label layer from scratch (memo misses; every round counts once per node
// under FullRecheck).
func (m *Machine) StaticRecomputes() int64 { return m.staticRecomputes.Load() }

// LabelCopies returns how many deep label copies StepInto performed. Steps
// share the immutable label block by reference, so it is always 0; it
// stays for callers that report it.
func (m *Machine) LabelCopies() int64 { return 0 }

// runtimeView adapts runtime.View to NodeView; the engine's dirty-epoch
// tracking backs the change clock.
//
//ssmst:allow determinism -- stack-allocated per step call; never outlives the step
type runtimeView struct{ v *runtime.View }

func (a runtimeView) Degree() int                  { return a.v.Degree() }
func (a runtimeView) Weight(port int) graph.Weight { return a.v.Weight(port) }
func (a runtimeView) PeerPort(q int) int           { return a.v.PeerPort(q) }
func (a runtimeView) Self() *VState                { return a.v.Self().(*VState) }
func (a runtimeView) Neighbour(port int) *VState {
	if st, ok := a.v.Neighbour(port).(*VState); ok {
		return st
	}
	return nil
}
func (a runtimeView) StepEpoch() int64 { return int64(a.v.Round()) }
func (a runtimeView) LabelsChangedSince(epoch int64) bool {
	return a.v.NeighbourhoodChangedSince(epoch)
}
func (a runtimeView) MarkLabelsChanged() { a.v.MarkChanged() }

// Init installs the marker's labels and the component structure.
func (m *Machine) Init(v *runtime.View) runtime.State {
	return m.Labeled.NodeState(v.Node())
}

// Scratch holds the reusable per-worker temporaries of one verifier step:
// neighbour lists, per-layer label views and the train contexts. A Scratch
// may be reused across nodes and rounds — its contents are rebuilt from the
// View every step and carry memory, never data — but must not be shared
// concurrently; the engine's per-View machine-scratch slot provides exactly
// that lifetime.
type Scratch struct {
	nbs       []nbList
	allSP     []*labeling.SPLabel
	allSize   []*labeling.SizeLabel
	childSize []*labeling.SizeLabel
	lv        hierarchy.LocalView
	tnbs      []train.NeighbourLabels
	ctx       train.Ctx // top-train context
	ctxB      train.Ctx // bottom-train context (built in the same pass)
	needTop   []int
	needBot   []int

	// parentPeer/parentPeerB back the contexts' Parent slots so building a
	// context allocates nothing.
	parentPeer  train.PeerTrain
	parentPeerB train.PeerTrain
}

// ReleaseRefs implements runtime.RefReleaser: it zeroes every state and
// label pointer the temporaries still hold, keeping their capacity, so a
// parked pool worker does not pin a dropped engine's states — and through
// their shared label blocks, the whole marked instance.
func (sc *Scratch) ReleaseRefs() {
	clear(sc.nbs[:cap(sc.nbs)])
	clear(sc.allSP[:cap(sc.allSP)])
	clear(sc.allSize[:cap(sc.allSize)])
	clear(sc.childSize[:cap(sc.childSize)])
	clear(sc.tnbs[:cap(sc.tnbs)])
	clear(sc.lv.Children[:cap(sc.lv.Children)])
	sc.lv.Own, sc.lv.Parent = nil, nil
	for _, ct := range [...]*train.Ctx{&sc.ctx, &sc.ctxB} {
		clear(ct.Children[:cap(ct.Children)])
		*ct = train.Ctx{Children: ct.Children[:0]}
	}
	sc.parentPeer, sc.parentPeerB = train.PeerTrain{}, train.PeerTrain{}
}

// scratchFor returns the View's verifier Scratch, installing one on first
// use (or when a different machine type last used this View).
func scratchFor(v *runtime.View) *Scratch {
	if sc, ok := v.MachineScratch().(*Scratch); ok {
		return sc
	}
	sc := new(Scratch)
	v.SetMachineScratch(sc)
	return sc
}

// Step implements runtime.Machine: the next state is written into the
// recycled VState from two steps back (sharing the immutable label block)
// and the per-View Scratch supplies every temporary, so the steady-state
// round or time unit allocates nothing. A nil scratch (the node's first
// step) gets a fresh VState.
//
//ssmst:hotpath
func (m *Machine) Step(v *runtime.View, scratch runtime.State) runtime.State {
	dst, ok := scratch.(*VState)
	if !ok || dst == nil {
		dst = new(VState) //ssmst:allow hotpathalloc -- cold: nil scratch (the node's first step) or a foreign state after SetState
	}
	//ssmst:allow hotpathalloc -- the adapter does not escape StepInto; the runtime alloc gate pins this at 0 allocs
	return m.StepInto(dst, runtimeView{v}, scratchFor(v))
}

// StepInto runs one verifier round at one node, writing the next state into
// dst. dst must not alias v.Self() or any neighbour state; the result shares
// v.Self()'s immutable label block. sc supplies every temporary the step
// needs.
//
// The step is split in two. The static label layer — neighbour presence,
// SP + NumK, hierarchy strings, train position labels, and the label-derived
// dwell window — reads only labels, which are constant between faults, so
// its verdict is memoized in the node's VState and replayed while the
// view's change clock reports the closed neighbourhood unchanged. The dynamic
// layer — the two trains, the coverage residual, the Ask/Show sampler —
// runs every round. In a quiet network the per-round cost is therefore the
// dynamic layer plus one O(degree) change probe, not the full label check.
//
//ssmst:hotpath
func (m *Machine) StepInto(dst *VState, v NodeView, sc *Scratch) *VState {
	old := v.Self()
	epoch := v.StepEpoch()
	dst.CopyFrom(old)
	if m.coast && old.coasting && !v.LabelsChangedSince(old.staticEpoch) {
		// Coast branch: the node is certified quiescent and nothing tracked
		// in its 1-hop neighbourhood changed since certification (stamped
		// at staticEpoch) — its step is one round of pure clockwork
		// (coast.go). A worklist engine that skips the node replays the same
		// closed form for k rounds, so dense and sparse stepping are
		// bit-identical by construction.
		m.coastAdvance(dst, 1)
		return dst
	}
	s := dst
	if s.coasting {
		// Melt: a tracked change reached the neighbourhood — wake into a
		// full step and mark the wake itself, so neighbouring coasters melt
		// one hop further next round (detection liveness: the wave reaches
		// every node that must observe a fault).
		s.coasting = false
		s.coastBits = 0
		v.MarkLabelsChanged()
	}
	alarm := false
	code := AlarmNone
	setAlarm := func(c AlarmCode) {
		alarm = true
		if code == AlarmNone {
			code = c
		}
	}

	n := s.L.Size.N
	if n < 2 {
		s.AlarmFlag = true
		s.AlarmCode = AlarmSize
		return s
	}
	deg := v.Degree()

	// ---- Derive tree relations from the components (both layers read
	// nbs; the dynamic layer needs the parent too). ----
	missing := sc.loadNeighbours(v, deg, s.MyID, m.Mode == Async)
	nbs := sc.nbs
	var parent *VState

	// The memo is trusted only when it was stamped by this engine's own
	// history (StaticEpoch ≤ epoch — a state transplanted from a foreign
	// run via SetState may carry any stamp) and nothing in the closed
	// neighbourhood changed since the stamp.
	if !m.FullRecheck && s.staticValid && int(s.ParentPort) < deg &&
		s.staticEpoch <= epoch && !v.LabelsChangedSince(s.staticEpoch) {
		// Memo hit: replay the static verdict. ParentPort is settled (< deg:
		// the corrupted-port repair marks the node dirty, so a repaired or
		// re-corrupted port always forces the miss path first).
		parent = treeParent(s, nbs)
		// Advance the stamp to this round: the hit itself re-established
		// "unchanged through epoch". Without the refresh, stamps would stay
		// pinned at their first computation and one fault anywhere would
		// disable the engine's O(1) all-quiet short-circuit
		// (maxDirty ≤ epoch) for the rest of the run.
		s.staticEpoch = epoch
	} else {
		parent = m.checkStatic(v, s, sc, missing, epoch)
	}
	if s.staticAlarm {
		alarm, code = true, s.staticCode
	}

	// ---- Layer 4: the trains (dynamic; every round). ----
	if coverageAlarm(s, sc, n) {
		setAlarm(AlarmCoverageStatic)
	}
	// The header copy above already holds old's trains, so both step in
	// place.
	restOK := m.coast && m.restsAt(v, s, epoch)
	ctT, ctB := sc.trainCtxs(s, parent, restOK)
	train.StepInto(&s.TopS, &s.TopS, ctT)
	train.StepInto(&s.BotS, &s.BotS, ctB)
	if s.TopS.Alarm || s.BotS.Alarm {
		setAlarm(AlarmTrainCycle)
	}

	// ---- Layer 5: the Ask/Show sampler with C1/C2 and piece equality. ----
	samplerAlarm := false
	m.sampler(v, s, nbs, n, &samplerAlarm)
	if samplerAlarm {
		setAlarm(AlarmSampler)
	}

	s.AlarmFlag = alarm
	s.AlarmCode = code

	// Coast certification (coast.go): an alarm-free node whose horizon is
	// quiet and whose certificate holds freezes into clockwork.
	if restOK && !alarm && m.certifies(v, s, nbs, parent, n) {
		m.freeze(s)
	}
	return s
}

// loadNeighbours fills sc.nbs with one record per port of v's deg ports —
// the neighbour's state and whether it is a tree child — and reports
// whether some neighbour is not running the verifier. The same pass fills
// both train contexts' Children lists (in port order) and their Wanted
// masks: under the asynchronous sampler (async), bit j is set iff some
// present neighbour's valid Want names own at level j; otherwise 0.
//
//ssmst:hotpath
func (sc *Scratch) loadNeighbours(v NodeView, deg int, own graph.NodeID, async bool) (missing bool) {
	sc.nbs = sc.nbs[:0]
	chT, chB := sc.ctx.Children[:0], sc.ctxB.Children[:0]
	var wanted uint64
	for q := 0; q < deg; q++ {
		st := v.Neighbour(q)
		if st == nil || st.L == nil {
			sc.nbs = append(sc.nbs, nbList{})
			missing = true
			continue
		}
		isChild := int(st.ParentPort) == v.PeerPort(q)
		sc.nbs = append(sc.nbs, nbList{st: st, ok: true, isChild: isChild})
		if isChild {
			chT = append(chT, train.PeerTrain{S: &st.TopS, L: &st.L.Train.Top})
			chB = append(chB, train.PeerTrain{S: &st.BotS, L: &st.L.Train.Bottom})
		}
		if w := &st.Want; async && w.Valid && w.ServerID == own && uint32(w.Level) < 64 {
			wanted |= 1 << uint(w.Level)
		}
	}
	sc.ctx.Children, sc.ctxB.Children = chT, chB
	sc.ctx.Wanted, sc.ctxB.Wanted = wanted, wanted
	return missing
}

// treeParent returns the state of s's tree parent: nil at a root, for an
// out-of-range port, or when the parent is not running the verifier.
func treeParent(s *VState, nbs []nbList) *VState {
	if pp := int(s.ParentPort); pp >= 0 && pp < len(nbs) && nbs[pp].ok {
		return nbs[pp].st
	}
	return nil
}

// checkStatic is the static layer's memo-miss path: it re-checks neighbour
// presence (missing: some neighbour is not running the verifier), SP +
// NumK, the hierarchy strings and the train position labels over sc.nbs,
// repairs an out-of-range parent port, and memoizes the verdict and the
// label-derived dwell window in s, stamped at epoch. It returns the tree
// parent's state (treeParent). StepInto runs it on every memo miss, the
// quiescence seed once per node.
func (m *Machine) checkStatic(v NodeView, s *VState, sc *Scratch, missing bool, epoch int64) *VState {
	m.staticRecomputes.Add(1)
	alarm := false
	code := AlarmNone
	setAlarm := func(c AlarmCode) {
		alarm = true
		if code == AlarmNone {
			code = c
		}
	}
	if missing {
		setAlarm(AlarmNeighbour)
	}
	nbs := sc.nbs
	deg := v.Degree()
	n := s.L.Size.N
	if int(s.ParentPort) >= deg {
		s.ParentPort = -1     // corrupted port: claim root; SP checks will object
		v.MarkLabelsChanged() // the repair is itself a label change
	}
	isRoot := s.ParentPort < 0
	parent := treeParent(s, nbs)

	// ---- Layer 1: SP + NumK. ----
	var parentSP *labeling.SPLabel
	sc.allSP, sc.allSize, sc.childSize = sc.allSP[:0], sc.allSize[:0], sc.childSize[:0]
	for q := 0; q < deg; q++ {
		if !nbs[q].ok {
			continue
		}
		sc.allSP = append(sc.allSP, &nbs[q].st.L.SP)
		sc.allSize = append(sc.allSize, &nbs[q].st.L.Size)
		if nbs[q].isChild {
			sc.childSize = append(sc.childSize, &nbs[q].st.L.Size)
		}
	}
	if parent != nil {
		parentSP = &parent.L.SP
	}
	if err := labeling.CheckSP(&s.L.SP, s.MyID, parentSP, sc.allSP); err != nil {
		setAlarm(AlarmSP)
	}
	if err := labeling.CheckSize(&s.L.Size, isRoot, sc.childSize, sc.allSize); err != nil {
		setAlarm(AlarmSize)
	}

	// ---- Layer 2: hierarchy strings (RS/EPS/Or_EndP). ----
	sc.lv.Ell = hierarchy.Ell(n)
	sc.lv.IsTreeRoot = isRoot
	sc.lv.Own = &s.L.HS
	sc.lv.Parent = nil
	sc.lv.Children = sc.lv.Children[:0]
	if parent != nil {
		sc.lv.Parent = &parent.L.HS
	}
	for q := 0; q < deg; q++ {
		if nbs[q].ok && nbs[q].isChild {
			sc.lv.Children = append(sc.lv.Children, &nbs[q].st.L.HS)
		}
	}
	if len(hierarchy.CheckLocal(&sc.lv)) > 0 {
		setAlarm(AlarmStrings)
	}

	// ---- Layer 3: train position labels. ----
	sc.tnbs = sc.tnbs[:0]
	for q := 0; q < deg; q++ {
		if !nbs[q].ok {
			continue
		}
		sc.tnbs = append(sc.tnbs, train.NeighbourLabels{
			IsParent: parent != nil && q == int(s.ParentPort),
			IsChild:  nbs[q].isChild,
			Port:     q,
			L:        &nbs[q].st.L.Train,
		})
	}
	if err := train.CheckLabels(&s.L.Train, s.MyID, isRoot, n, sc.tnbs); err != nil {
		setAlarm(AlarmTrainLabels)
	}

	// Memoize the static verdict and the label-derived dwell window.
	s.staticValid = true
	s.staticAlarm = alarm
	s.staticCode = code
	s.staticWindow = int32(dwellWindow(s, nbs))
	s.staticEpoch = epoch
	return parent
}

// coverageAlarm runs the trains' static coverage checks. They are
// non-trivial only for degenerate train sizes K ≤ 1 (the wrap-based
// cycle-set check covers K ≥ 2), so the guard inlines into the step and
// the needed-level lists are built only past it.
func coverageAlarm(s *VState, sc *Scratch, n int) bool {
	return (s.L.Train.Top.K <= 1 || s.L.Train.Bottom.K <= 1) && degenerateCoverageAlarm(s, sc, n)
}

func degenerateCoverageAlarm(s *VState, sc *Scratch, n int) bool {
	sc.needTop, sc.needBot = train.AppendNeededLevels(sc.needTop[:0], sc.needBot[:0], &s.L.HS, n)
	return staticCoverageAlarm(&s.L.Train.Top, &s.TopS, sc.needTop, &s.L.HS, true, n) ||
		staticCoverageAlarm(&s.L.Train.Bottom, &s.BotS, sc.needBot, &s.L.HS, false, n)
}

// staticCoverageAlarm handles the degenerate train sizes the wrap-based
// cycle-set check cannot see: K = 0 with needed levels, K = 1 with more
// than one needed level, or a K = 1 buffer showing the wrong piece.
func staticCoverageAlarm(l *train.Labels, st *train.State, need []int, hs *hierarchy.Strings, top bool, n int) bool {
	switch {
	case l.K == 0:
		return len(need) > 0
	case l.K == 1:
		if len(need) > 1 {
			return true
		}
		if len(need) == 1 && st.Down.Valid {
			if !train.Member(st.Down, hs, top, n) || st.Down.P.ID.Level != need[0] {
				return true
			}
		}
	}
	return false
}

// trainCtxs completes both sides' train step contexts in sc's reusable
// context pair, whose Children lists and Wanted masks loadNeighbours filled.
// It writes the fields one by one: assigning a composite literal would
// build the 88-B context in a temporary and copy it in, for every stepped
// node every round.
func (sc *Scratch) trainCtxs(s *VState, parent *VState, restOK bool) (top, bottom *train.Ctx) {
	ct, cb := &sc.ctx, &sc.ctxB
	n := s.L.Size.N
	ct.OwnID, ct.Lab, ct.Strings, ct.N, ct.Top = s.MyID, &s.L.Train.Top, &s.L.HS, n, true
	cb.OwnID, cb.Lab, cb.Strings, cb.N, cb.Top = s.MyID, &s.L.Train.Bottom, &s.L.HS, n, false
	ct.RestOK, cb.RestOK = restOK, restOK
	ct.Parent, cb.Parent = nil, nil
	if parent != nil {
		sc.parentPeer = train.PeerTrain{S: &parent.TopS, L: &parent.L.Train.Top}
		sc.parentPeerB = train.PeerTrain{S: &parent.BotS, L: &parent.L.Train.Bottom}
		ct.Parent, cb.Parent = &sc.parentPeer, &sc.parentPeerB
	}
	return ct, cb
}

// nbList is one neighbour's record in Scratch.nbs, shared by the static
// layer, the sampler and the coast certificate.
type nbList struct {
	st      *VState
	ok      bool
	isChild bool
}

func trainSide(s *VState, top bool) *train.State {
	if top {
		return &s.TopS
	}
	return &s.BotS
}
