package train

import (
	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
)

// Car is a convergecast buffer: one piece travelling toward the part root.
// Pos is a position inside the part's window [0, K), so it is stored in 32
// bits (see State).
type Car struct {
	Valid bool
	Pos   int32
	P     hierarchy.Piece
}

// Down is a broadcast buffer: one piece travelling away from the part root,
// with the §7.1 membership flag.
type Down struct {
	Valid bool
	Flag  bool
	Pos   int32
	P     hierarchy.Piece
}

// samePayload compares two broadcast buffers ignoring the flag (each node
// recomputes its own flag).
func samePayload(a, b Down) bool {
	return a.Valid == b.Valid && a.Pos == b.Pos && a.P == b.P
}

// State is the dynamic per-train state of one node. Every integer register
// is a position inside the part's window, a count of positions, or a
// watchdog bounded by the cycle budget, so each is stored in 32 bits; the
// step widens them to int wherever they meet a label or the budget, and
// stores only results inside those bounds. The fields are ordered so that
// the struct packs into 96 bytes (verify's footprint test pins it): each
// node holds two trains in each of its two engine buffers.
type State struct {
	Up   Car
	Down Down

	// §8 cycle-set check state.
	CovMask uint64
	LastPos int32
	SeenCnt int32 // positions observed in the current window

	UpNext int32
	Timer  int32 // at the part root: rounds since the cycle started

	// Reset wave (cycle restart / self-stabilization flush).
	Reset    bool
	ResetAck bool

	CovValid bool
	Alarm    bool
}

// BitSize measures the dynamic train state. Audited field-complete against
// the struct (Up, UpNext, Down incl. Flag, Reset, ResetAck, Timer, and the
// cycle-set check block) when the verifier's AlarmCode under-count was
// fixed. Written as a straight sum — the engine re-measures every node
// every round, and the variadic bits.Sum form spilled its argument slice to
// the stack on the hot path. Each boolean is counted through bits.Flag
// (inlined to 1) so the bitsizeaudit analyzer can tie every bit to the
// field it pays for.
func (s *State) BitSize() int {
	return bits.Flag(s.Up.Valid) + bits.Flag(s.Down.Valid) + bits.Flag(s.Down.Flag) +
		bits.Flag(s.Reset) + bits.Flag(s.ResetAck) + bits.Flag(s.CovValid) + bits.Flag(s.Alarm) +
		bits.ForInt(int64(s.Up.Pos)) + s.Up.P.BitSize() +
		bits.ForInt(int64(s.UpNext)) +
		bits.ForInt(int64(s.Down.Pos)) + s.Down.P.BitSize() +
		bits.ForInt(int64(s.Timer)) +
		bits.ForInt(int64(s.LastPos)) +
		bits.ForInt(int64(s.SeenCnt)) +
		bits.ForUint(s.CovMask)
}

// Clone returns a copy (State has no reference fields).
func (s *State) Clone() *State { c := *s; return &c }

// PeerTrain is the visible train state and labels of one tree neighbour.
type PeerTrain struct {
	S *State
	L *Labels
}

// Want is a sampler request (§7.2.2): the client asks server ServerID to
// hold the piece of level Level in its Show register. Level is a level of
// the hierarchy, at most ℓ ≤ 62, so it is stored in 32 bits.
type Want struct {
	ServerID graph.NodeID
	Level    int32
	Valid    bool
}

// Ctx is everything one train step may read, supplied by the embedding
// verifier machine.
type Ctx struct {
	OwnID   graph.NodeID
	Lab     *Labels
	Strings *hierarchy.Strings // own strings, for membership flags and J(v)
	N       int                // verified node count (budget, delimiter)
	Top     bool               // which of the two trains this is

	Parent   *PeerTrain // tree parent's same-kind train, nil at the tree root
	Children []PeerTrain
	// Wanted has bit j set iff some graph neighbour currently requests that
	// this node hold a shown piece of level j (asynchronous mode; 0
	// otherwise). A hold needs a member piece, whose level lies below
	// Strings.Levels() ≤ 63, so 64 bits cover every level a hold can name.
	Wanted uint64

	// RestOK, set by an embedding machine that has certified a quiet horizon
	// (no tracked neighbourhood change for a configured stretch; see
	// internal/verify coast mode), lets the part root PARK at the end of a
	// completed cycle instead of launching the next reset+sweep: the
	// watchdog Timer keeps ticking modulo its wrap (Timer is never read by
	// peers, so the tick is protocol-invisible) and the convergecast stays
	// drained, so the whole train reaches a per-node fixed point. Any fault
	// re-dirties the horizon, RestOK drops, and the very next root step
	// fires the watchdog reset and resumes sweeping. Default false: the
	// paper's always-sweeping behavior, bit-identical to before this field
	// existed.
	RestOK bool
}

// Budget returns the cycle budget: a healthy cycle (convergecast +
// broadcast + reset flush) completes well within it.
func (c *Ctx) Budget() int { return c.Lab.CycleBudget() }

// inPart reports whether the peer belongs to the same part.
func inPart(c *Ctx, p *PeerTrain) bool {
	return p != nil && p.L != nil && p.S != nil && p.L.PartRootID == c.Lab.PartRootID
}

// StepInto computes the next train state into dst (State has no reference
// fields, so recycling is a plain overwrite). dst may be old itself — the
// step then runs in place, which is how the verifier steps the trains its
// header copy already holds — but must not alias any peer state reachable
// from c. Peer states are never mutated.
//
//ssmst:hotpath
func StepInto(dst *State, old *State, c *Ctx) {
	if dst != old {
		*dst = *old
	}
	s := dst
	l := c.Lab
	if l.K == 0 {
		// Empty train: hold a quiescent state.
		*s = State{}
		return
	}
	isRoot := l.PartRootID == c.OwnID
	parentIn := !isRoot && inPart(c, c.Parent)

	// ---- Sanitize cursor and car against the verified window. ----
	// The window comes from the labels, so the registers are widened to int
	// for every comparison with it; past this point UpNext lies inside it.
	winLo, winHi := int(l.PosStart), int(l.PosStart)+int(l.SubCnt)
	if up := int(s.UpNext); up < winLo || up > winHi {
		s.UpNext = int32(winLo)
	}
	if s.Up.Valid && (int(s.Up.Pos) < winLo || int(s.Up.Pos) >= winHi) {
		s.Up.Valid = false
	}

	// ---- Reset wave. ----
	if isRoot {
		if s.Reset {
			if childrenAcked(c) && !s.Up.Valid && int(s.UpNext) == winLo {
				s.Reset = false
				s.Timer = 0
			} else {
				s.flush(winLo)
			}
		} else {
			cycleDone := int(s.UpNext) == winHi && !s.Up.Valid
			if c.RestOK && cycleDone {
				// Rest: park at the cycle end; the watchdog ticks in place.
				s.Timer = int32(IdleTimerTick(int(s.Timer), c.Budget()))
			} else {
				t := int(s.Timer) + 1
				s.Timer = int32(t)
				if cycleDone || t > c.Budget() {
					s.Reset = true
					s.flush(winLo)
				}
			}
		}
	} else {
		pr := parentIn && c.Parent.S.Reset
		s.Reset = pr
		if s.Reset {
			s.flush(winLo)
			s.ResetAck = childrenAcked(c)
		} else {
			s.ResetAck = false
		}
	}

	// ---- Convergecast (suspended during reset). ----
	if !s.Reset {
		// Consumption: the parent's cursor moved past my car.
		if s.Up.Valid && parentIn && c.Parent.S.UpNext > s.Up.Pos {
			s.Up.Valid = false
		}
		if isRoot && s.Up.Valid && samePayload(s.Down, Down{Valid: true, Pos: s.Up.Pos, P: s.Up.P}) {
			// Root car already fed into the broadcast.
			s.Up.Valid = false
		}
		// Offer the next position.
		if up := int(s.UpNext); !s.Up.Valid && up < winHi {
			switch {
			case up < winLo+int(l.Cnt):
				s.Up = Car{Valid: true, Pos: s.UpNext, P: l.Stored()[up-winLo]}
				s.UpNext++
			default:
				for i := range c.Children {
					ch := &c.Children[i]
					if !inPart(c, ch) {
						continue
					}
					cl := ch.L
					if lo := int(cl.PosStart); lo <= up && up < lo+int(cl.SubCnt) {
						if ch.S.Up.Valid && ch.S.Up.Pos == s.UpNext {
							s.Up = Car{Valid: true, Pos: s.UpNext, P: ch.S.Up.P}
							s.UpNext++
						}
						break
					}
				}
			}
		}
	}

	// ---- Broadcast (continues during reset so the pipeline drains). ----
	// A server holds the train (§7.2.2) only while the shown piece is one a
	// client can actually consume: a member piece of the wanted level.
	j := s.Down.P.ID.Level
	hold := s.Down.Valid && uint(j) < 64 && c.Wanted>>uint(j)&1 != 0 && c.flagOrLevelMember(s.Down)
	ackOK := childrenMatch(c, s.Down)
	if !hold && ackOK {
		if isRoot {
			if s.Up.Valid && !samePayload(s.Down, Down{Valid: true, Pos: s.Up.Pos, P: s.Up.P}) {
				nd := Down{Valid: true, Pos: s.Up.Pos, P: s.Up.P}
				nd.Flag = c.flagFor(nd.P, true)
				s.observe(c, nd)
				s.Down = nd
			}
		} else if parentIn {
			pd := c.Parent.S.Down
			if pd.Valid && !samePayload(pd, s.Down) {
				nd := Down{Valid: true, Pos: pd.Pos, P: pd.P}
				nd.Flag = c.flagFor(nd.P, pd.Flag)
				s.observe(c, nd)
				s.Down = nd
			}
		}
	}
}

// IdleTimerTick advances a resting part root's watchdog by one round:
// modular arithmetic over the wrap period budget+1, normalized into
// [0, budget] from any (even adversarial) starting value. Defined as pure
// modular addition — not increment-then-compare — so that k applications
// have the closed form IdleTimerAdvance(t, budget, k) exactly.
//
//ssmst:hotpath
//ssmst:coastpure
func IdleTimerTick(timer, budget int) int {
	return IdleTimerAdvance(timer, budget, 1)
}

// IdleTimerAdvance is the k-round closed form of IdleTimerTick: it equals k
// iterated single ticks, in O(1), for every k ≥ 1 from any (even
// adversarial) starting value, and for k = 0 from any in-range value (a
// single tick normalizes an out-of-range timer into [0, budget]; advancing
// by zero rounds from one is the only case with no tick to normalize
// through, and the engine never advances by zero). Worklist stepping
// (internal/runtime) uses it to advance a skipped resting node's watchdog
// lazily.
//
//ssmst:hotpath
//ssmst:coastpure
func IdleTimerAdvance(timer, budget, k int) int {
	m := budget + 1
	if m < 1 {
		m = 1
	}
	t := (timer + k%m) % m
	if t < 0 {
		t += m
	}
	return t
}

// AtRest reports whether a train state is at its idle fixed point for the
// given labels: convergecast drained (cursor parked at the window end, no
// car in flight) and no reset wave in progress. An empty train (K == 0) is
// at rest iff it holds the zero state its step pins it to. A network whose
// trains are all at rest performs no train state changes except the part
// roots' peer-invisible watchdog ticks — the precondition for the
// verifier's coast regime.
func AtRest(s *State, l *Labels) bool {
	if l.K == 0 {
		return *s == State{}
	}
	return !s.Up.Valid && int(s.UpNext) == int(l.PosStart)+int(l.SubCnt) && !s.Reset && !s.ResetAck
}

// Drained returns the drained fixed point of a train with labels l: no car
// in flight, the cursor at the window end, no reset and no ack, an empty
// Show buffer, the cycle-set registers cleared as at a clean start, and the
// root watchdog at 0. It is AtRest; with RestOK and drained peers a step
// leaves it unchanged except for the part root's watchdog tick. Nothing is
// shown, so every sampler capture from it starves; once RestOK drops the
// root launches a reset at once, and the first window after that restart
// goes unjudged (CovValid is false). An empty train's drained state is the
// zero state its step pins it to.
func Drained(l *Labels) State {
	if l.K == 0 {
		return State{}
	}
	return State{UpNext: int32(int(l.PosStart) + int(l.SubCnt))}
}

// flush clears the convergecast machinery during a reset.
func (s *State) flush(winLo int) {
	s.Up = Car{}
	s.UpNext = int32(winLo)
	s.Timer = 0
}

// childrenAcked reports whether all same-part children acknowledged the
// reset.
func childrenAcked(c *Ctx) bool {
	for i := range c.Children {
		ch := &c.Children[i]
		if inPart(c, ch) && !(ch.S.Reset && ch.S.ResetAck) {
			return false
		}
	}
	return true
}

// childrenMatch reports whether all same-part children copied the buffer.
func childrenMatch(c *Ctx, d Down) bool {
	if !d.Valid {
		return true
	}
	for i := range c.Children {
		ch := &c.Children[i]
		if inPart(c, ch) && !samePayload(ch.S.Down, d) {
			return false
		}
	}
	return true
}

// flagFor computes the §7.1 membership flag when copying a piece: true iff
// this node belongs to the piece's fragment. For bottom fragments the flag
// chains down from the fragment root; for top pieces membership is by-level
// (the delimiter makes top and bottom levels disjoint).
func (c *Ctx) flagFor(p hierarchy.Piece, parentFlag bool) bool {
	j := p.ID.Level
	if p.ID.RootID == c.OwnID {
		return true
	}
	if c.Strings == nil || j < 0 || j >= c.Strings.Levels() {
		return false
	}
	if c.Top {
		return c.Strings.InFragmentAt(j)
	}
	return parentFlag && c.Strings.RootsAt(j) == hierarchy.RootsNo
}

// Member reports whether the shown piece belongs to a fragment containing
// this node, per the flag/delimiter rules.
func Member(d Down, strings *hierarchy.Strings, top bool, n int) bool {
	return MemberAt(&d, strings, top, LevelSplit(n))
}

// MemberAt is Member with the §8 delimiter LevelSplit(n) precomputed by the
// caller and the buffer passed by pointer. The verifier's sampler calls the
// membership test once per neighbour per round; hoisting the split and
// skipping the buffer copy make the per-neighbour work a handful of loads
// and comparisons. d is read-only.
func MemberAt(d *Down, strings *hierarchy.Strings, top bool, split int) bool {
	if !d.Valid || strings == nil {
		return false
	}
	j := d.P.ID.Level
	if j < 0 || j >= strings.Levels() {
		return false
	}
	if top != (j >= split) {
		return false
	}
	if top {
		return strings.InFragmentAt(j)
	}
	return d.Flag
}

// observe runs the §8 cycle-set check when a new piece arrives: between two
// wraps of the broadcast position, the levels seen with positive membership
// must cover every level of a fragment containing this node on this train's
// side of the delimiter.
func (s *State) observe(c *Ctx, nd Down) {
	if nd.Pos < s.LastPos {
		// Cycle boundary: recompute the alarm so that it clears once the
		// train delivers correctly again (the verifier must stop rejecting
		// after transient faults wash out of a correct instance). Partial
		// windows (mid-cycle restarts after resets or holds) are skipped:
		// only windows that showed all K positions are judged.
		if s.CovValid && c.Strings != nil && int(s.SeenCnt) >= int(c.Lab.K) {
			failed := false
			split := LevelSplit(c.N)
			for j := 0; j < c.Strings.Levels(); j++ {
				if !c.Strings.InFragmentAt(j) {
					continue
				}
				if c.Top != (j >= split) {
					continue
				}
				if s.CovMask&(1<<uint(j)) == 0 {
					failed = true
				}
			}
			s.Alarm = failed
		}
		s.CovMask = 0
		s.SeenCnt = 0
		s.CovValid = true
	}
	s.LastPos = nd.Pos
	s.SeenCnt++
	member := c.flagOrLevelMember(nd)
	if member && nd.P.ID.Level >= 0 && nd.P.ID.Level < 64 {
		s.CovMask |= 1 << uint(nd.P.ID.Level)
	}
}

func (c *Ctx) flagOrLevelMember(d Down) bool {
	return Member(d, c.Strings, c.Top, c.N)
}
