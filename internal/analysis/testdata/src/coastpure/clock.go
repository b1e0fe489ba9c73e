// Package clock is the fixture for the closed-form replay contract: a
// coast-advance root and everything it reaches must be a side-effect-free
// closed form — no per-tick loops, no journaling or allocation, no
// change-tracking calls, no tracked-field writes. Advance is the
// sanctioned shape; the other roots degrade it one rule at a time,
// including through an unannotated reachable helper.
package clock

// State is a coasting node: a tracked label with a derived memo, plus the
// untracked clock orbit the closed form replays.
type State struct {
	//ssmst:tracked
	Label int
	memo  bool

	Timer int
	Trace []int
}

// InvalidateMemo drops the derived memo.
func (s *State) InvalidateMemo() { s.memo = false }

// engine mimics the change-tracking journal.
type engine struct{ changed []bool }

// MarkChanged journals a dirty node.
func (e *engine) MarkChanged(i int) { e.changed[i] = true }

// Advance is the sanctioned closed form: k iterated ticks as O(1) modular
// arithmetic over untracked scalars. Clean.
//
//ssmst:coastpure
func Advance(s *State, budget, k int) {
	m := budget + 1
	if m < 1 {
		m = 1
	}
	t := (s.Timer + k%m) % m
	if t < 0 {
		t += m
	}
	s.Timer = t
}

// AdvanceLooped iterates the ticks the closed form exists to replace.
//
//ssmst:coastpure
func AdvanceLooped(s *State, budget, k int) {
	for i := 0; i < k; i++ { // want coastpure:"per-tick loop in coast replay"
		Advance(s, budget, 1)
	}
}

// AdvanceJournaled materializes a trace of the skipped rounds.
//
//ssmst:coastpure
func AdvanceJournaled(s *State, budget, k int) []int {
	trace := make([]int, 0, k) // want coastpure:"make in coast replay"
	trace = append(trace, s.Timer)
	return trace
}

// AdvanceRepairing writes tracked state and drives the invalidation
// protocol from inside replay — both belong to the full step.
//
//ssmst:coastpure
func AdvanceRepairing(s *State, k int) {
	s.Label = k        // want coastpure:"writes tracked field Label"
	s.InvalidateMemo() // want coastpure:"InvalidateMemo in coast replay"
}

// AdvanceWaking reaches the journal through a helper: the closure is held
// to the contract, not just the annotated root.
//
//ssmst:coastpure
func AdvanceWaking(e *engine, s *State, i, budget, k int) {
	Advance(s, budget, k)
	wake(e, i)
}

// wake is reachable from AdvanceWaking, so its tracking call is replay
// side-effect even though wake itself carries no annotation.
func wake(e *engine, i int) {
	e.MarkChanged(i) // want coastpure:"MarkChanged in coast replay"
}

// AdvanceDeferred defers work out of the replay's own frame.
//
//ssmst:coastpure
func AdvanceDeferred(s *State, budget, k int) {
	defer Advance(s, budget, k) // want coastpure:"defer in coast replay"
}

// AdvanceCold materializes its buffer at most once per lifetime; the allow
// records the sanctioned exception with its reason. Clean.
//
//ssmst:coastpure
func AdvanceCold(s *State) {
	if s.Trace == nil {
		s.Trace = make([]int, 0, 4) //ssmst:allow coastpure -- once per state lifetime
	}
}
