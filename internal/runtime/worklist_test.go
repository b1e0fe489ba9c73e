package runtime

import (
	"reflect"
	"strings"
	"testing"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/raceflag"
)

// coastProbe is a toy CoastStepper whose states raise alarms and
// terminate, so worklist rounds exercise every piece of the shared round
// body: frontier seeding from marks, lag replay, and the alarm/termination
// flip counting of stepNode. Each node floods the minimum identity it has
// heard (the tracked state: a change marks the node), raises an alarm while
// a neighbour still disagrees with it (recording the widest disagreeing
// value as evidence, so alarmed states are wider and move the bit
// high-water mark, and folding its neighbours' clocks into a running sum,
// so an alarmed step reads lagged skipped neighbours and a wrong read
// persists), is done once its minimum has not changed for coastProbeCalm
// steps (counting them needs a step per round, marks or not), and runs a
// degree-paced clock that a quiescent node advances in closed form from the
// degree its last step stored.
type coastProbe struct{}

const (
	coastProbePeriod = 11
	coastProbeCalm   = 3
)

type coastProbeState struct {
	Min      graph.NodeID
	Evidence graph.NodeID // widest disagreeing neighbour value; 0 unless alarmed
	Heard    int          // neighbours' clocks summed over alarmed steps, mod the period
	Tick     int          // coast clockwork: advances by Deg each round
	Deg      int          // the degree at the node's last step
	Calm     int          // steps since Min last changed, capped at coastProbeCalm
	Alarmed  bool
	Finished bool
}

// BitSize is constant while quiescent: the counters are counted at their
// fixed width, and a quiescent state carries no evidence.
func (s *coastProbeState) BitSize() int {
	return bits.ForInt(int64(s.Min)) + bits.ForInt(int64(s.Evidence)) +
		2*bits.ForUint(coastProbePeriod-1) + bits.ForUint(coastProbeCalm) + bits.ForInt(int64(s.Deg)) +
		bits.Flag(s.Alarmed) + bits.Flag(s.Finished)
}
func (s *coastProbeState) Clone() State { c := *s; return &c }
func (s *coastProbeState) Alarm() bool  { return s.Alarmed }
func (s *coastProbeState) Done() bool   { return s.Finished }

func (coastProbe) Init(v *View) State { return &coastProbeState{Min: v.ID(), Deg: v.Degree()} }

func (coastProbe) Step(v *View, scratch State) State {
	old := v.Self().(*coastProbeState)
	next := *old
	for p := 0; p < v.Degree(); p++ {
		if nb := v.Neighbour(p).(*coastProbeState); nb.Min < next.Min {
			next.Min = nb.Min
		}
	}
	next.Alarmed, next.Evidence = false, 0
	heard := old.Heard
	for p := 0; p < v.Degree(); p++ {
		nb := v.Neighbour(p).(*coastProbeState)
		heard += nb.Tick
		if nb.Min != next.Min {
			next.Alarmed = true
			if nb.Min > next.Evidence {
				next.Evidence = nb.Min
			}
		}
	}
	if next.Alarmed {
		next.Heard = heard % coastProbePeriod
	}
	next.Deg = v.Degree()
	next.Tick = (old.Tick + next.Deg) % coastProbePeriod
	if next.Min != old.Min {
		next.Calm = 0
		v.MarkChanged()
	} else if next.Calm < coastProbeCalm {
		next.Calm++
	}
	next.Finished = next.Calm == coastProbeCalm
	s, ok := scratch.(*coastProbeState)
	if !ok {
		s = new(coastProbeState)
	}
	*s = next
	return s
}

// Quiescent: a done node that agrees with its whole neighbourhood steps,
// under an unchanged neighbourhood, into itself with the clock one tick on.
func (coastProbe) Quiescent(st State) (int64, bool) {
	s := st.(*coastProbeState)
	return NoWake, s.Finished && !s.Alarmed
}

func (coastProbe) CoastAdvance(st State, k int) {
	s := st.(*coastProbeState)
	s.Tick = (s.Tick + k%coastProbePeriod*s.Deg) % coastProbePeriod
}

var _ CoastStepper = coastProbe{}

// recount checks the engine's O(1) instrumentation against an O(n) scan of
// its states: AnyAlarm, AlarmNodes, AllDone, and MaxStateBits against the
// running high-water mark *maxBits of every state ever observed.
func recount(t *testing.T, name string, r int, e *Engine, maxBits *int) {
	t.Helper()
	var alarms []int
	done := true
	for v := 0; v < e.G().N(); v++ {
		s := e.State(v).(*coastProbeState)
		if s.Alarmed {
			alarms = append(alarms, v)
		}
		done = done && s.Finished
		if b := s.BitSize(); b > *maxBits {
			*maxBits = b
		}
	}
	first, any := e.AnyAlarm()
	if any != (len(alarms) > 0) || (any && first != alarms[0]) {
		t.Fatalf("%s round %d: AnyAlarm = (%d, %v), recount %v", name, r, first, any, alarms)
	}
	if got := e.AlarmNodes(); !reflect.DeepEqual(got, alarms) {
		t.Fatalf("%s round %d: AlarmNodes = %v, recount %v", name, r, got, alarms)
	}
	if e.AllDone() != done {
		t.Fatalf("%s round %d: AllDone = %v, recount %v", name, r, e.AllDone(), done)
	}
	if e.MaxStateBits() != *maxBits {
		t.Fatalf("%s round %d: MaxStateBits = %d, recount %d", name, r, e.MaxStateBits(), *maxBits)
	}
}

// TestWorklistMatchesDense steps the toy coast machine on a dense engine
// and on worklist engines (serial and pool-forced) through convergence,
// quiet stretches, a local transient, and global re-floods. Every round the
// worklist engines must equal the dense one state for state, and every
// engine's alarm, termination and bit instrumentation must equal an O(n)
// recount. A final lazy stretch steps without reading, so skipped nodes
// replay many rounds of lag at once.
func TestWorklistMatchesDense(t *testing.T) {
	g := graph.RandomConnected(300, 900, 13)
	dense := New(g, coastProbe{}, 5)
	serial := New(g, coastProbe{}, 5)
	serial.Worklist = true
	pooled := New(g, coastProbe{}, 5)
	pooled.Worklist = true
	pooled.Parallel = true
	pooled.Workers = PoolWorkers() // at any n, even on a single-core host
	engines := []*Engine{dense, serial, pooled}
	names := []string{"dense", "worklist", "worklist-pool"}
	maxBits := make([]int, len(engines))
	for i, e := range engines {
		maxBits[i] = e.MaxStateBits()
	}

	low := trueMin(g)
	inject := func(v int, min graph.NodeID) {
		for _, e := range engines {
			s := e.State(v).Clone().(*coastProbeState)
			s.Min = min
			e.SetState(v, s)
		}
	}
	sawQuiet, sawPartial, sawDone := false, false, false
	for r := 0; r < 160; r++ {
		switch r {
		case 40: // local transient: one node claims a larger minimum
			inject(7, low+1000)
		case 80: // global re-flood from one node
			low--
			inject(123, low)
		case 120, 121: // two overlapping waves
			low--
			inject(r, low)
		}
		for _, e := range engines {
			e.StepSync()
		}
		for v := 0; v < g.N(); v++ {
			want := *dense.State(v).(*coastProbeState)
			for i, e := range engines[1:] {
				if got := *e.State(v).(*coastProbeState); got != want {
					t.Fatalf("round %d node %d: %s %+v != dense %+v", r, v, names[i+1], got, want)
				}
			}
		}
		for i, e := range engines {
			recount(t, names[i], r, e, &maxBits[i])
		}
		if a := serial.LastActive(); a != pooled.LastActive() {
			t.Fatalf("round %d: active sets differ: serial %d pool %d", r, a, pooled.LastActive())
		} else if a == 0 {
			sawQuiet = true
		} else if a < g.N() {
			sawPartial = true
		}
		sawDone = sawDone || dense.AllDone()
	}
	if !sawQuiet || !sawPartial || !sawDone {
		t.Fatalf("schedule did not exercise the worklist: quiet=%v partial=%v allDone=%v", sawQuiet, sawPartial, sawDone)
	}
	if dense.StepsTaken() <= serial.StepsTaken() || serial.StepsTaken() != pooled.StepsTaken() {
		t.Fatalf("steps: dense %d, worklist %d, pool %d", dense.StepsTaken(), serial.StepsTaken(), pooled.StepsTaken())
	}

	// Lazy stretch: a re-flood, then 60 rounds nobody reads.
	low--
	inject(200, low)
	for r := 0; r < 60; r++ {
		for _, e := range engines {
			e.StepSync()
		}
	}
	for v := 0; v < g.N(); v++ {
		want := *dense.State(v).(*coastProbeState)
		for i, e := range engines[1:] {
			if got := *e.State(v).(*coastProbeState); got != want {
				t.Fatalf("after lazy stretch node %d: %s %+v != dense %+v", v, names[i+1], got, want)
			}
		}
	}
	for i, e := range engines {
		recount(t, names[i], 220, e, &maxBits[i])
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	f()
}

// TestWorklistLatch: the first synchronous round with Worklist set arms the
// worklist for the engine's lifetime. Clearing Worklist afterwards, or
// stepping the armed engine asynchronously, panics instead of replaying the
// skipped nodes' lag. A machine without CoastStepper never arms, so the
// flag changes nothing for it.
func TestWorklistLatch(t *testing.T) {
	g := graph.RandomConnected(40, 80, 2)

	e := New(g, coastProbe{}, 1)
	e.Worklist = true
	e.StepSync()
	e.Worklist = false
	mustPanic(t, "Worklist", e.StepSync)

	e = New(g, coastProbe{}, 1)
	e.Worklist = true
	e.StepSync()
	mustPanic(t, "StepAsync", e.StepAsync)

	plain := New(g, minIDMachine{}, 1)
	plain.Worklist = true
	plain.StepSync()
	plain.StepAsync()
	plain.Worklist = false
	plain.StepSync()
	if plain.StepsTaken() < 3*int64(g.N()) || plain.LastActive() != g.N() {
		t.Fatalf("non-coast machine: steps %d, last active %d", plain.StepsTaken(), plain.LastActive())
	}
}

// ringProbe is a toy CoastStepper whose nodes coast until a timed wake:
// each counts rounds up to its period and then rings, which its neighbours
// hear (a ring marks the node changed). The period depends on how many
// rings a node has heard, so a neighbour's ring moves a pending wake
// earlier or later.
type ringProbe struct{}

type ringState struct {
	Tick  int   // rounds since the last ring, below the period
	Rings int   // rings so far
	Heard int   // the neighbours' rings, summed
	wake  int64 // the round it next rings
}

func (s *ringState) period(id graph.NodeID) int { return 20 + int(id+graph.NodeID(s.Heard))%37 }

// BitSize counts Tick at the width of the longest period, so it stays
// constant while the node coasts.
func (s *ringState) BitSize() int {
	return bits.ForInt(int64(s.Rings)) + bits.ForInt(int64(s.Heard)) + bits.ForUint(56)
}
func (s *ringState) Clone() State { c := *s; return &c }
func (s *ringState) Alarm() bool  { return false }
func (s *ringState) Done() bool   { return false }

func (ringProbe) Init(v *View) State { return &ringState{} }

func (ringProbe) Step(v *View, scratch State) State {
	old := v.Self().(*ringState)
	next := *old
	next.Heard = 0
	for p := 0; p < v.Degree(); p++ {
		next.Heard += v.Neighbour(p).(*ringState).Rings
	}
	next.Tick++
	if per := next.period(v.ID()); next.Tick >= per {
		next.Tick = 0
		next.Rings++
		v.MarkChanged()
	}
	next.wake = int64(v.Round()) + int64(next.period(v.ID())-next.Tick)
	s, ok := scratch.(*ringState)
	if !ok {
		s = new(ringState)
	}
	*s = next
	return s
}

// Quiescent: under an unchanged neighbourhood a node only counts, until
// the round it rings.
func (ringProbe) Quiescent(st State) (int64, bool) { return st.(*ringState).wake, true }

func (ringProbe) CoastAdvance(st State, k int) { st.(*ringState).Tick += k }

// TestTimedWakeMatchesDense steps the ring machine on a dense engine and on
// worklist engines (serial and pool-forced): every node coasts between
// rings, so every ring is a timed wake, and the rings a node hears move its
// pending wake. The worklist engines must equal the dense one state for
// state every round while stepping far fewer nodes, and a warmed worklist
// round must allocate nothing.
func TestTimedWakeMatchesDense(t *testing.T) {
	g := graph.RandomConnected(200, 500, 7)
	dense := New(g, ringProbe{}, 1)
	serial := New(g, ringProbe{}, 1)
	serial.Worklist = true
	pooled := New(g, ringProbe{}, 1)
	pooled.Worklist = true
	pooled.Parallel = true
	pooled.Workers = PoolWorkers()
	engines := []*Engine{dense, serial, pooled}
	for r := 0; r < 300; r++ {
		for _, e := range engines {
			e.StepSync()
		}
		lazy := r%50 >= 25 // half the time, let skipped nodes lag unread
		if lazy && r%50 != 49 {
			continue
		}
		for v := 0; v < g.N(); v++ {
			want := *dense.State(v).(*ringState)
			for i, e := range engines[1:] {
				if got := *e.State(v).(*ringState); got != want {
					t.Fatalf("round %d node %d: worklist engine %d %+v != dense %+v", r, v, i, got, want)
				}
			}
		}
	}
	if serial.StepsTaken() != pooled.StepsTaken() || 3*serial.StepsTaken() > dense.StepsTaken() {
		t.Fatalf("steps: dense %d, worklist %d, pool %d", dense.StepsTaken(), serial.StepsTaken(), pooled.StepsTaken())
	}
	if raceflag.Enabled {
		return
	}
	if avg := testing.AllocsPerRun(50, serial.StepSync); avg != 0 {
		t.Errorf("%.2f allocs per warmed worklist round, want 0", avg)
	}
}
