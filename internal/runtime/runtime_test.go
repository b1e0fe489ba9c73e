package runtime

import (
	gort "runtime"
	"ssmst/internal/raceflag"
	"sync"
	"testing"
	"time"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
)

// minIDState is a toy flooding protocol: every node converges to the minimum
// identity in the network. Used to exercise both daemons.
type minIDState struct {
	min graph.NodeID
}

func (s *minIDState) BitSize() int      { return bits.ForInt(int64(s.min)) }
func (s *minIDState) Clone() State      { c := *s; return &c }
func (s *minIDState) Alarm() bool       { return false }
func (s *minIDState) Done() bool        { return false }
func (s *minIDState) Min() graph.NodeID { return s.min }

type minIDMachine struct{}

func (minIDMachine) Init(v *View) State { return &minIDState{min: v.ID()} }

func (minIDMachine) Step(v *View, _ State) State {
	min := v.Self().(*minIDState).min
	if own := v.ID(); own < min {
		min = own
	}
	for p := 0; p < v.Degree(); p++ {
		if ns := v.Neighbour(p).(*minIDState); ns.min < min {
			min = ns.min
		}
	}
	return &minIDState{min: min}
}

func trueMin(g *graph.Graph) graph.NodeID {
	m := g.ID(0)
	for v := 1; v < g.N(); v++ {
		if g.ID(v) < m {
			m = g.ID(v)
		}
	}
	return m
}

func converged(e *Engine, want graph.NodeID) bool {
	for v := 0; v < e.G().N(); v++ {
		if e.State(v).(*minIDState).min != want {
			return false
		}
	}
	return true
}

func TestSyncConvergesInDiameterRounds(t *testing.T) {
	g := graph.Path(10, 1)
	e := New(g, minIDMachine{}, 7)
	want := trueMin(g)
	rounds, ok := e.RunUntil(false, 100, func(e *Engine) bool { return converged(e, want) })
	if !ok {
		t.Fatal("did not converge")
	}
	if rounds > g.Diameter() {
		t.Fatalf("took %d rounds, diameter is %d", rounds, g.Diameter())
	}
}

func TestAsyncConverges(t *testing.T) {
	g := graph.RandomConnected(20, 40, 3)
	e := New(g, minIDMachine{}, 7)
	e.Jitter = 0.5
	want := trueMin(g)
	_, ok := e.RunUntil(true, 200, func(e *Engine) bool { return converged(e, want) })
	if !ok {
		t.Fatal("async run did not converge")
	}
	if e.StepsTaken() < int64(g.N()) {
		t.Fatal("activation accounting wrong")
	}
}

// asyncTap is coastProbe with every step it takes counted: the widest state
// it returned (under the asynchronous daemon a node may step several times
// in one time unit, so no end-of-unit scan sees every state the bit
// high-water mark counts), the steps that got nil scratch, and the steps
// whose scratch was the node's current state.
type asyncTap struct {
	coastProbe
	c *tapCounts
}

type tapCounts struct{ maxBits, nilScratch, aliased int }

func (m asyncTap) Step(v *View, scratch State) State {
	if scratch == nil {
		m.c.nilScratch++
	} else if scratch == v.Self() {
		m.c.aliased++
	}
	s := m.coastProbe.Step(v, scratch)
	m.c.maxBits = max(m.c.maxBits, s.BitSize())
	return s
}

// activationCount is a toy state counting its node's activations.
type activationCount struct{ n int }

func (s *activationCount) BitSize() int { return bits.ForInt(int64(s.n)) }
func (s *activationCount) Clone() State { c := *s; return &c }
func (s *activationCount) Alarm() bool  { return false }
func (s *activationCount) Done() bool   { return false }

type activationCounter struct{}

func (activationCounter) Init(v *View) State { return &activationCount{} }
func (activationCounter) Step(v *View, _ State) State {
	return &activationCount{n: v.Self().(*activationCount).n + 1}
}

// TestAsyncTimeUnit pins the asynchronous time unit: every node is
// activated at least once per StepAsync; at Jitter 0 exactly once (n
// activations per unit), and at Jitter J the extra activations average
// J/(1−J) per node, so a unit averages n/(1−J).
func TestAsyncTimeUnit(t *testing.T) {
	g := graph.RandomConnected(200, 500, 3)
	n := g.N()
	for _, jitter := range []float64{0, 0.3} {
		e := New(g, activationCounter{}, 9)
		e.Jitter = jitter
		const units = 200
		prev := make([]int, n)
		for u := 0; u < units; u++ {
			before := e.StepsTaken()
			e.StepAsync()
			got := int(e.StepsTaken() - before)
			sum := 0
			for v := 0; v < n; v++ {
				c := e.State(v).(*activationCount).n
				if c == prev[v] {
					t.Fatalf("jitter %.1f unit %d: node %d was not activated", jitter, u, v)
				}
				sum += c - prev[v]
				prev[v] = c
			}
			if sum != got {
				t.Fatalf("jitter %.1f unit %d: StepsTaken grew by %d, the nodes counted %d activations", jitter, u, got, sum)
			}
			if jitter == 0 && got != n {
				t.Fatalf("jitter 0 unit %d: %d activations, want exactly n=%d", u, got, n)
			}
		}
		mean := float64(e.StepsTaken()) / units
		want := float64(n) / (1 - jitter)
		if mean < 0.98*want || mean > 1.02*want {
			t.Errorf("jitter %.1f: %.1f activations per unit, want n/(1−J) = %.1f within 2%%", jitter, mean, want)
		}
	}
}

// TestAsyncMatchesRecount steps the toy coast machine under the
// asynchronous daemon with Jitter through convergence, a local transient
// and a global re-flood. After every StepAsync the recycling engine must
// equal one whose steps all get nil scratch, state for state, and its
// alarm, termination and bit instrumentation must equal an O(n) recount.
// Every activation recycles the node's state from two activations back: a
// step gets nil scratch only at its node's first activation, and never the
// node's current state.
func TestAsyncMatchesRecount(t *testing.T) {
	g := graph.RandomConnected(300, 900, 13)
	var c tapCounts
	e := New(g, asyncTap{c: &c}, 5)
	fresh := New(g, freshStep{coastProbe{}}, 5)
	e.Jitter, fresh.Jitter = 0.3, 0.3
	c.maxBits = e.MaxStateBits()

	low := trueMin(g)
	inject := func(v int, min graph.NodeID) {
		for _, x := range []*Engine{e, fresh} {
			s := x.State(v).Clone().(*coastProbeState)
			s.Min = min
			x.SetState(v, s)
			c.maxBits = max(c.maxBits, s.BitSize())
		}
	}
	sawAlarm, sawDone := false, false
	for u := 0; u < 120; u++ {
		switch u {
		case 40: // local transient: one node claims a larger minimum
			inject(7, low+1000)
		case 80: // global re-flood from one node
			low--
			inject(123, low)
		}
		e.StepAsync()
		fresh.StepAsync()
		for v := 0; v < g.N(); v++ {
			if got, want := *e.State(v).(*coastProbeState), *fresh.State(v).(*coastProbeState); got != want {
				t.Fatalf("unit %d node %d: recycled %+v != fresh %+v", u, v, got, want)
			}
		}
		recount(t, "async", u, e, &c.maxBits)
		_, alarm := e.AnyAlarm()
		sawAlarm = sawAlarm || alarm
		sawDone = sawDone || e.AllDone()
	}
	if !sawAlarm || !sawDone {
		t.Fatalf("schedule did not exercise the instrumentation: alarm=%v allDone=%v", sawAlarm, sawDone)
	}
	if c.nilScratch != g.N() || c.aliased != 0 {
		t.Fatalf("%d steps got nil scratch (want one per node, %d) and %d the current state (want 0)",
			c.nilScratch, g.N(), c.aliased)
	}
	if e.StepsTaken() != fresh.StepsTaken() || e.StepsTaken() < 120*int64(g.N()) {
		t.Fatalf("activations: recycled %d, fresh %d", e.StepsTaken(), fresh.StepsTaken())
	}
}

func TestSyncReadsPreviousRound(t *testing.T) {
	// On a path with the minimum at one end, information travels exactly one
	// hop per synchronous round; after k rounds the min has reached exactly
	// the first k+1 nodes. This fails if the engine leaks current-round
	// states.
	ids := []graph.NodeID{1, 10, 11, 12, 13, 14}
	g := graph.New(6, ids)
	for i := 0; i+1 < 6; i++ {
		g.MustAddEdge(i, i+1, graph.Weight(i+1))
	}
	e := New(g, minIDMachine{}, 0)
	for k := 1; k < 6; k++ {
		e.StepSync()
		for v := 0; v < 6; v++ {
			got := e.State(v).(*minIDState).min
			if v <= k && got != 1 {
				t.Fatalf("round %d: node %d should have min 1, has %d", k, v, got)
			}
			if v > k && got == 1 {
				t.Fatalf("round %d: node %d received min too early", k, v)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.RandomConnected(128, 300, 5)
	seq := New(g, minIDMachine{}, 9)
	par := New(g, minIDMachine{}, 9)
	par.Parallel = true
	for r := 0; r < 10; r++ {
		seq.StepSync()
		par.StepSync()
		for v := 0; v < g.N(); v++ {
			if seq.State(v).(*minIDState).min != par.State(v).(*minIDState).min {
				t.Fatalf("round %d node %d: parallel diverged", r, v)
			}
		}
	}
}

// minIDInPlaceMachine is minIDMachine writing its next state into the
// recycled two-rounds-old scratch state.
type minIDInPlaceMachine struct{ minIDMachine }

func (m minIDInPlaceMachine) Step(v *View, scratch State) State {
	s, ok := scratch.(*minIDState)
	if !ok {
		s = &minIDState{}
	}
	s.min = m.minIDMachine.Step(v, nil).(*minIDState).min
	return s
}

// TestParallelDeterminism asserts the acceptance criterion of the engine
// rewrite: over 100 rounds on a random graph, pooled parallel stepping —
// with fresh and with recycled next states — is bit-identical to serial
// stepping, every round. Run under -race in CI to exercise the pool.
func TestParallelDeterminism(t *testing.T) {
	g := graph.RandomConnected(300, 900, 21)
	serial := New(g, minIDMachine{}, 4)
	par := New(g, minIDMachine{}, 4)
	par.Parallel = true
	par.Workers = PoolWorkers() // at any n, even on a single-core host
	inplace := New(g, minIDInPlaceMachine{}, 4)
	inplace.Parallel = true
	inplace.Workers = PoolWorkers()
	for r := 0; r < 100; r++ {
		serial.StepSync()
		par.StepSync()
		inplace.StepSync()
		for v := 0; v < g.N(); v++ {
			want := serial.State(v).(*minIDState).min
			if got := par.State(v).(*minIDState).min; got != want {
				t.Fatalf("round %d node %d: parallel %d != serial %d", r, v, got, want)
			}
			if got := inplace.State(v).(*minIDState).min; got != want {
				t.Fatalf("round %d node %d: in-place %d != serial %d", r, v, got, want)
			}
		}
		if par.MaxStateBits() != serial.MaxStateBits() {
			t.Fatalf("round %d: parallel maxBits %d != serial %d", r, par.MaxStateBits(), serial.MaxStateBits())
		}
	}
}

// TestInPlaceConverges checks the recycled-scratch step against the toy
// protocol's semantics end to end.
func TestInPlaceConverges(t *testing.T) {
	g := graph.Path(10, 1)
	e := New(g, minIDInPlaceMachine{}, 7)
	want := trueMin(g)
	rounds, ok := e.RunUntil(false, 100, func(e *Engine) bool { return converged(e, want) })
	if !ok {
		t.Fatal("did not converge")
	}
	if rounds > g.Diameter() {
		t.Fatalf("took %d rounds, diameter is %d", rounds, g.Diameter())
	}
}

// TestWorkersCap checks that the Workers knob limits fan-out without
// changing results.
func TestWorkersCap(t *testing.T) {
	g := graph.RandomConnected(200, 500, 3)
	serial := New(g, minIDMachine{}, 5)
	capped := New(g, minIDMachine{}, 5)
	capped.Parallel = true
	capped.Workers = 1 // degenerates to the serial path
	for r := 0; r < 20; r++ {
		serial.StepSync()
		capped.StepSync()
	}
	for v := 0; v < g.N(); v++ {
		if serial.State(v).(*minIDState).min != capped.State(v).(*minIDState).min {
			t.Fatalf("node %d: Workers=1 diverged", v)
		}
	}
}

// viewBarrier is minIDMachine with a barrier in front of every step: a
// step records the View running it and waits until want distinct Views
// have stepped, or until the deadline. Each pool worker steps through a
// View of its own, so the barrier opens only when want workers step one
// round at the same time.
type viewBarrier struct {
	minIDMachine
	want     int
	deadline time.Time
	mu       sync.Mutex
	views    map[*View]bool
	open     chan struct{}
}

func (b *viewBarrier) Step(v *View, scratch State) State {
	b.mu.Lock()
	if !b.views[v] {
		b.views[v] = true
		if len(b.views) == b.want {
			close(b.open)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.open:
	case <-time.After(time.Until(b.deadline)):
	}
	return b.minIDMachine.Step(v, scratch)
}

// TestForcedFanOutSmallRound checks that Workers = k > 0 fans out a round
// smaller than one stepChunk claim: at n=48, k Views must step the one
// round concurrently, each claiming 48/k nodes.
func TestForcedFanOutSmallRound(t *testing.T) {
	k := min(PoolWorkers(), 4)
	g := graph.RandomConnected(48, 110, 3)
	b := &viewBarrier{want: k, views: map[*View]bool{}, open: make(chan struct{})}
	e := New(g, b, 1)
	e.Parallel = true
	e.Workers = k
	b.deadline = time.Now().Add(10 * time.Second)
	e.StepSync()
	select {
	case <-b.open:
	default:
		t.Fatalf("%d View(s) stepped the round, want %d concurrently", len(b.views), k)
	}
}

// TestParallelSpeedup asserts the ≥2× scaling criterion on machines with
// enough cores; on fewer than 4 cores there is nothing to measure.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation skews the parallel/serial ratio")
	}
	cores := gort.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need ≥4 cores, have %d", cores)
	}
	g := graph.RandomConnected(16384, 49152, 1)
	const rounds = 30
	timeRun := func(parallel bool) time.Duration {
		e := New(g, minIDInPlaceMachine{}, 1)
		e.Parallel = parallel
		e.RunSyncRounds(2) // warm both buffers
		start := time.Now()
		e.RunSyncRounds(rounds)
		return time.Since(start)
	}
	serial := timeRun(false)
	par := timeRun(true)
	if par*2 > serial {
		t.Fatalf("parallel %v not ≥2× faster than serial %v on %d cores", par, serial, cores)
	}
}

func TestCorruptAndSetState(t *testing.T) {
	g := graph.Ring(5, 2)
	e := New(g, minIDMachine{}, 1)
	e.RunUntil(false, 50, func(e *Engine) bool { return converged(e, trueMin(g)) })
	e.Corrupt(3, func(s State) State {
		s.(*minIDState).min = 0 // adversarially low value
		return s
	})
	// Flooding spreads the corrupted value — it is NOT self-stabilizing.
	// This asymmetry is exactly why the paper needs verification.
	e.RunSyncRounds(g.Diameter() + 1)
	if !converged(e, 0) {
		t.Fatal("corrupted min did not spread; engine not applying SetState")
	}
}

func TestMaxStateBits(t *testing.T) {
	g := graph.Path(4, 3)
	e := New(g, minIDMachine{}, 1)
	if e.MaxStateBits() <= 0 {
		t.Fatal("bit accounting missing")
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		if b := e.State(v).BitSize(); b > max {
			max = b
		}
	}
	if e.MaxStateBits() < max {
		t.Fatal("MaxStateBits below current state size")
	}
}

// alarmState exercises AnyAlarm/AlarmNodes.
type alarmState struct {
	minIDState
	alarm bool
}

func (s *alarmState) Alarm() bool { return s.alarm }
func (s *alarmState) Clone() State {
	c := *s
	return &c
}

type alarmMachine struct{ bad graph.NodeID }

func (m alarmMachine) Init(v *View) State {
	return &alarmState{minIDState: minIDState{min: v.ID()}}
}

func (m alarmMachine) Step(v *View, _ State) State {
	s := v.Self().(*alarmState).Clone().(*alarmState)
	s.alarm = v.ID() == m.bad
	return s
}

func TestAlarms(t *testing.T) {
	g := graph.Path(5, 4)
	bad := g.ID(2)
	e := New(g, alarmMachine{bad: bad}, 0)
	if _, any := e.AnyAlarm(); any {
		t.Fatal("alarm before stepping")
	}
	e.StepSync()
	idx, any := e.AnyAlarm()
	if !any || idx != 2 {
		t.Fatalf("alarm at %d (any=%v), want node 2", idx, any)
	}
	nodes := e.AlarmNodes()
	if len(nodes) != 1 || nodes[0] != 2 {
		t.Fatalf("AlarmNodes = %v", nodes)
	}
}
