package verify

import (
	"fmt"
	"math/rand"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/runtime"
	"ssmst/internal/train"
)

// Runner drives the verifier over an engine and provides fault injection
// and detection measurement (experiments E3–E5).
type Runner struct {
	// Labeled is the instance the runner verifies, without the marking
	// by-products: H and Parts are nil (Labeled.WithoutScaffolding).
	Labeled *Labeled
	Machine *Machine
	Eng     *runtime.Engine
}

// NewRunner builds an engine with the marker's labels installed. Synchronous
// rounds fan out over the shared worker pool at large n (bit-identical to
// serial stepping; see the runtime package doc), recycle each node's
// two-rounds-old state without allocating, and re-check the static label
// layers only when the engine's change tracking reports a neighbourhood
// label change (incremental verification; bit-identical to
// NewFullRecheckRunner). Like every runner constructor, it panics on a nil
// l, and keeps l without its marking by-products H and Parts, which the
// caller's l still holds.
func NewRunner(l *Labeled, mode Mode, seed int64) *Runner {
	return newRunner(l, mode, seed, false)
}

// NewFullRecheckRunner is NewRunner with static-verdict memoization
// disabled (Machine.FullRecheck): every round re-checks all label layers
// from scratch. The reference configuration the incremental verifier is
// measured against; the two are bit-identical in every protocol-visible
// field (TestIncrementalMatchesFullRecheck).
func NewFullRecheckRunner(l *Labeled, mode Mode, seed int64) *Runner {
	return newRunner(l, mode, seed, true)
}

func newRunner(l *Labeled, mode Mode, seed int64, fullRecheck bool) *Runner {
	if l == nil {
		panic("verify: runner built on a nil *Labeled; mark the instance first (Mark or MarkTree)")
	}
	l = l.WithoutScaffolding()
	m := &Machine{Mode: mode, Labeled: l, FullRecheck: fullRecheck}
	eng := runtime.New(l.G, m, seed)
	eng.Parallel = true
	return &Runner{Labeled: l, Machine: m, Eng: eng}
}

// NewWorklistRunner is NewRunner (Sync mode) with the coast regime enabled
// (coast.go) and sparse active-set stepping (runtime.Engine.Worklist):
// quiet rounds step only the frontier, skipped coasting nodes are replayed
// in closed form, making round cost O(active + Δ) instead of O(n).
//
// A fresh, correct instance — l.G unchanged since marking, and its tree
// the MST by oracle.TLightness — starts frozen: every node is installed in
// the coast configuration a quiet network would settle into, and the
// frontier drains within 2 rounds instead of a settle of Θ(horizon)
// rounds (coast.go, step 0). Every other instance starts awake, as
// NewRunner does. Verdicts, detection rounds, alarm traces and
// MaxStateBits are bit-identical to dense coast stepping from the same
// start by construction (worklist_parity_test.go, FuzzWorklistParity).
func NewWorklistRunner(l *Labeled, seed int64) *Runner {
	r := newRunner(l, Sync, seed, false)
	r.Machine.coast = true
	r.Eng.Worklist = true
	r.seedQuiescence()
	return r
}

// DetectionBudget bounds the detection time promised by Theorem 8.5 for a
// correct-label instance of n nodes: a full Ask sweep (levels × dwell) plus
// train stabilization, with slack. Synchronous shape: O(log² n).
func DetectionBudget(n int) int {
	lam := train.LambdaThreshold(n)
	levels := hierarchy.Ell(n) + 1
	return 4 * levels * (2*(8*(10*lam)+24) + 16)
}

// Step advances one time unit under the daemon of the machine's Mode.
func (r *Runner) Step() { r.Eng.Step(r.Machine.Mode == Async) }

// RunQuiet runs for the given number of rounds and returns an error on the
// first alarm (used to establish false-alarm freedom on correct instances).
func (r *Runner) RunQuiet(rounds int) error {
	for i := 0; i < rounds; i++ {
		r.Step()
		if v, bad := r.Eng.AnyAlarm(); bad {
			return fmt.Errorf("verify: false alarm at node %d after %d rounds", v, i+1)
		}
	}
	return nil
}

// RunUntilAlarm steps until some node alarms, returning the rounds taken
// and the alarming nodes (a fresh slice — callers may retain it across
// further runs). The per-round poll is the engine's O(1) incremental
// instrumentation, so the loop itself is allocation-free; the O(n) alarm
// collection runs once, at detection.
func (r *Runner) RunUntilAlarm(maxRounds int) (int, []int, bool) {
	for i := 0; i < maxRounds; i++ {
		r.Step()
		if _, bad := r.Eng.AnyAlarm(); bad {
			return i + 1, r.Eng.AlarmNodes(), true
		}
	}
	return maxRounds, nil, false
}

// RunUntilQuiet steps until no node alarms for calm consecutive rounds
// (recovery after transient faults on a correct instance).
func (r *Runner) RunUntilQuiet(maxRounds, calm int) (int, bool) {
	quiet := 0
	for i := 0; i < maxRounds; i++ {
		r.Step()
		if _, bad := r.Eng.AnyAlarm(); bad {
			quiet = 0
		} else {
			quiet++
			if quiet >= calm {
				return i + 1, true
			}
		}
	}
	return maxRounds, false
}

// Inject applies a state mutation at node v (a fault).
func (r *Runner) Inject(v int, f func(*VState)) {
	r.Eng.Corrupt(v, func(s runtime.State) runtime.State {
		vs := s.(*VState)
		f(vs)
		return vs
	})
}

// Fault kinds used by experiments and tests.
type FaultKind int

// The fault menu: each corrupts a different label/state layer.
const (
	FaultStoredPieceW FaultKind = iota // lower a stored piece's ω̂
	FaultStoredPieceID
	FaultRootsEntry // flip a Roots string entry
	FaultEndPEntry
	FaultSPDist
	FaultSizeN
	FaultComponent // re-point the parent pointer (changes H(G))
	FaultTrainDyn  // scramble dynamic train state (transient)
	numFaultKinds
)

// InjectKind applies the given fault kind at node v, using rng for the
// specifics. It reports whether the fault actually changed something.
//
// The injection is clone-apply-commit: the fault mutates a clone and is
// committed through SetState only when it changed something. A no-op kind
// (no stored piece to corrupt, an empty Roots string) must leave the engine
// completely untouched — committing it anyway would bump the victim's dirty
// epoch and invalidate its memos, forcing a re-check that masks exactly the
// memo-invalidation bugs the incremental/full-recheck parity suites exist
// to catch.
func (r *Runner) InjectKind(v int, kind FaultKind, rng *rand.Rand) bool {
	s := r.Eng.State(v).Clone().(*VState)
	if !ApplyFault(s, kind, rng, len(r.Labeled.G.Ports(v))) {
		return false
	}
	r.Eng.SetState(v, s)
	return true
}

// ApplyFault mutates a verifier state with the given fault kind — the
// injection core shared by Runner.InjectKind and by embeddings that carry
// VStates inside composite states (the self-stabilizing transformer).
// degree is the node's degree (used by FaultComponent). It reports whether
// the state actually changed. Most kinds rewrite the label block in place,
// so s must own its block: pass a Clone, never a state whose labels an
// engine or a Labeled still shares.
//
// On a change, every simulator-side memo the state carries (static verdict,
// cached label BitSize, coast certificate) is dropped: most fault kinds
// rewrite the very labels those caches measure, and a stale cache would let
// e.g. MaxStateBits keep reporting bits the corruption removed. A no-op
// kind leaves the memos — and everything else — untouched, so callers can
// trust changed=false to mean "the state is bit-identical to before".
// Engine-level injection (SetState/Corrupt) invalidates again — the drop
// here covers direct uses of ApplyFault on states held outside an engine.
func ApplyFault(s *VState, kind FaultKind, rng *rand.Rand, degree int) bool {
	if !applyFaultKind(s, kind, rng, degree) {
		return false
	}
	s.InvalidateMemo()
	return true
}

//ssmst:memosafe -- ApplyFault (the only caller) invalidates after every effective mutation
func applyFaultKind(s *VState, kind FaultKind, rng *rand.Rand, degree int) bool {
	switch kind {
	case FaultStoredPieceW:
		// Prefer bottom pieces: every bottom-stored piece's fragment is
		// contained in its part, so the corruption is always observable.
		// (A corrupted top replica in a part disjoint from its fragment
		// leaves the configuration a valid proof of a true statement —
		// the scheme rightly keeps accepting.)
		for _, lab := range []*train.Labels{&s.L.Train.Bottom, &s.L.Train.Top} {
			stored := lab.Stored()
			for i := range stored {
				if stored[i].W != hierarchy.NoOutWeight {
					stored[i].W += graph.Weight(1 + rng.Intn(5))
					return true
				}
			}
		}
	case FaultStoredPieceID:
		for _, lab := range []*train.Labels{&s.L.Train.Bottom, &s.L.Train.Top} {
			if stored := lab.Stored(); len(stored) > 0 {
				stored[0].ID.RootID += graph.NodeID(1 + rng.Intn(1000))
				return true
			}
		}
	case FaultRootsEntry:
		if k := s.L.HS.Levels(); k > 0 {
			j := rng.Intn(k)
			old := s.L.HS.RootsAt(j)
			for _, sym := range []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone} {
				if sym != old {
					s.L.HS.SetRootsAt(j, sym)
					return true
				}
			}
		}
	case FaultEndPEntry:
		if k := s.L.HS.Levels(); k > 0 {
			j := rng.Intn(k)
			old := s.L.HS.EndPAt(j)
			for _, sym := range []byte{hierarchy.EndPUp, hierarchy.EndPDown, hierarchy.EndPNone, hierarchy.EndPStar} {
				if sym != old {
					s.L.HS.SetEndPAt(j, sym)
					return true
				}
			}
		}
	case FaultSPDist:
		s.L.SP.Dist += 1 + rng.Intn(3)
		return true
	case FaultSizeN:
		s.L.Size.N += 1 + rng.Intn(3)
		return true
	case FaultComponent:
		if degree > 0 {
			old := s.ParentPort
			s.ParentPort = int32((int(old) + 1 + rng.Intn(degree)) % degree)
			return s.ParentPort != old
		}
	case FaultTrainDyn:
		for _, ts := range []*train.State{&s.TopS, &s.BotS} {
			ts.UpNext = int32(rng.Intn(16))
			ts.Up.Valid = rng.Intn(2) == 0
			ts.Up.Pos = int32(rng.Intn(16))
			ts.Down.Valid = rng.Intn(2) == 0
			ts.Down.Pos = int32(rng.Intn(16))
			ts.Down.P.ID.Level = rng.Intn(8)
			ts.CovMask = rng.Uint64()
			ts.LastPos = int32(rng.Intn(16))
		}
		return true
	}
	return false
}

// DetectionDistance returns, for each fault location, the hop distance to
// the nearest alarming node (Theorem 8.5: O(f log n)).
func DetectionDistance(g *graph.Graph, faults, alarms []int) []int {
	out := make([]int, len(faults))
	for i, f := range faults {
		dist := g.BFSDistances(f)
		best := -1
		for _, a := range alarms {
			if d := dist[a]; d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
		out[i] = best
	}
	return out
}
