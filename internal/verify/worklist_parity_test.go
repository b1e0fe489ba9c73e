package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// worklistParity is the differential battery locking the worklist engine to
// the dense coast reference (the PR 8 acceptance gate): through settling,
// long quiet coasting stretches (replayed lazily, k rounds in one
// CoastAdvance), fault storms from the whole menu, churn events of every
// kind, and campaign-style bursts, the two engines — which run identical
// machine code and differ only in which nodes they visit — must agree on
// every node's full state, BitSize, alarm code, alarm rounds, and the
// MaxStateBits high-water mark.

// newCoastRunner is NewRunner (Sync mode) with the coast regime enabled but
// DENSE stepping kept: every node is still visited every round, coasting
// nodes through the clockwork branch. This is the full-sweep reference
// configuration the worklist engine is differentially tested against — the
// two run identical machine code and must be bit-identical everywhere.
func newCoastRunner(l *Labeled, seed int64) *Runner {
	r := newRunner(l, Sync, seed, false)
	r.Machine.coast = true
	return r
}

// newColdWorklistRunner is NewWorklistRunner without the quiescence seed:
// every node starts awake and the network freezes only through the natural
// settle, whose horizon and certification cascade the settle tests
// exercise.
func newColdWorklistRunner(l *Labeled, seed int64) *Runner {
	r := newCoastRunner(l, seed)
	r.Eng.Worklist = true
	return r
}

// parityRunners builds the pair, each on its own marked copy of g0: the
// dense full-sweep coast reference (serial — the semantics oracle) and the
// sparse worklist engine, serial or pool-forced. seeded starts both from
// the quiescence seed (the dense one through the same seedQuiescence that
// NewWorklistRunner runs); otherwise both start awake.
func parityRunners(t *testing.T, g0 *graph.Graph, seed int64, parallel, seeded bool) (*Runner, *Runner) {
	t.Helper()
	dense := newCoastRunner(markCopy(t, g0), seed)
	dense.Eng.Parallel = false
	wl := newColdWorklistRunner(markCopy(t, g0), seed)
	if seeded {
		if !dense.seedQuiescence() {
			t.Fatal("a fresh Mark instance failed the quiescence seed")
		}
		wl = NewWorklistRunner(markCopy(t, g0), seed)
	}
	if parallel {
		wl.Eng.Workers = runtime.PoolWorkers()
	} else {
		wl.Eng.Parallel = false
	}
	return dense, wl
}

// compareWorklist asserts full-state equality at every node. The comparison
// is strict — protocol fields, coast certification fields, and the
// simulator-side memos alike: the two configurations step the same awake
// set each round and freeze the same nodes at the same epochs, so even the
// memo stamps must coincide. Reading every state forces the worklist engine
// to materialize its lazily-skipped nodes, exercising the closed-form
// replay at whatever lag the schedule accumulated.
func compareWorklist(t *testing.T, tag string, g *graph.Graph, dense, wl *Runner) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		a := dense.Eng.State(v).(*VState)
		b := wl.Eng.State(v).(*VState)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s node %d: worklist state diverged from dense coast\ndense %+v\n   wl %+v", tag, v, a, b)
		}
		if ab, bb := a.BitSize(), b.BitSize(); ab != bb {
			t.Fatalf("%s node %d: BitSize diverged: dense %d, worklist %d", tag, v, ab, bb)
		}
	}
	if am, bm := dense.Eng.MaxStateBits(), wl.Eng.MaxStateBits(); am != bm {
		t.Fatalf("%s: MaxStateBits diverged: dense %d, worklist %d", tag, am, bm)
	}
}

// parityDriver runs the randomized differential schedule. g and l are the
// dense runner's graph and marking, which churn events are planned on.
type parityDriver struct {
	t            *testing.T
	g            *graph.Graph
	l            *Labeled
	dense        *Runner
	wl           *Runner
	round        int
	alarmRec     []int // rounds where the alarm flag was up (parity-checked)
	lastMutation int   // round of the most recent fault/churn (for must-detect)
}

func (d *parityDriver) tag() string { return fmt.Sprintf("round %d", d.round) }

// step advances both engines in lockstep. Alarm booleans are compared every
// round (they are O(1) instrumentation and subsume detection-round parity);
// full states are compared every round when compareEvery is set, else only
// at the end of the stretch — the long-lag mode that makes the worklist
// engine replay k rounds of clockwork in a single CoastAdvance.
func (d *parityDriver) step(k int, compareEvery bool) {
	t := d.t
	t.Helper()
	for i := 0; i < k; i++ {
		d.dense.Step()
		d.wl.Step()
		d.round++
		_, da := d.dense.Eng.AnyAlarm()
		_, wa := d.wl.Eng.AnyAlarm()
		if da != wa {
			t.Fatalf("%s: alarm flag diverged: dense %v, worklist %v", d.tag(), da, wa)
		}
		if da {
			d.alarmRec = append(d.alarmRec, d.round)
			an := d.dense.Eng.AlarmNodes()
			bn := d.wl.Eng.AlarmNodes()
			if !reflect.DeepEqual(an, bn) {
				t.Fatalf("%s: alarm sets diverged: dense %v, worklist %v", d.tag(), an, bn)
			}
		}
		if compareEvery {
			compareWorklist(t, d.tag(), d.g, d.dense, d.wl)
		}
	}
	if !compareEvery {
		compareWorklist(t, d.tag()+" (stretch end)", d.g, d.dense, d.wl)
	}
}

// settle steps until the worklist frontier drains (all nodes coasting),
// comparing at every round — certification timing itself is part of the
// contract.
func (d *parityDriver) settle(cap int) {
	d.t.Helper()
	for i := 0; i < cap; i++ {
		d.step(1, true)
		if d.wl.Eng.LastActive() == 0 {
			return
		}
	}
	d.t.Fatalf("%s: frontier never drained within %d rounds (active=%d)", d.tag(), cap, d.wl.Eng.LastActive())
}

// inject applies one identical fault to both engines (clone-per-engine so
// no state aliases across them). Reports whether the kind was effective.
func (d *parityDriver) inject(v int, kind FaultKind, rng *rand.Rand) bool {
	s := d.dense.Eng.State(v).Clone().(*VState)
	if !ApplyFault(s, kind, rng, len(d.g.Ports(v))) {
		return false
	}
	d.dense.Eng.SetState(v, s)
	d.wl.Eng.SetState(v, s.Clone())
	d.lastMutation = d.round
	return true
}

// applyChurn applies one planned topology mutation to both engines, each
// on its own graph.
func (d *parityDriver) applyChurn(ev ChurnEvent, apply func(*graph.Graph) error) {
	d.t.Helper()
	for _, r := range []*Runner{d.dense, d.wl} {
		if err := r.Eng.MutateTopology(apply); err != nil {
			d.t.Fatalf("%s: churn %v: %v", d.tag(), ev, err)
		}
	}
}

// churn plans one topology mutation of the given kind and applies it to
// both engines.
func (d *parityDriver) churn(kind ChurnKind, rng *rand.Rand) bool {
	ev, apply, ok := PlanChurn(d.g, d.l.Tree, kind, rng)
	if !ok {
		return false
	}
	d.applyChurn(ev, apply)
	compareWorklist(d.t, d.tag()+" (post-churn)", d.g, d.dense, d.wl)
	d.lastMutation = d.round
	return true
}

func runWorklistParitySchedule(t *testing.T, seed int64, parallel, seeded bool) {
	dense, wl := parityRunners(t, graph.RandomConnected(72, 180, seed), SubSeed(seed, 0), parallel, seeded)
	g, l := dense.Eng.G(), dense.Labeled
	d := &parityDriver{t: t, g: g, l: l, dense: dense, wl: wl}
	budget := DetectionBudget(g.N())

	// Phase 1: settle into the fully-coasting regime, compared every round.
	d.settle(budget)
	settleRound := d.round

	// Phase 2: quiet coasting stretches with no state reads in between —
	// the worklist engine accumulates real lag and replays it in closed
	// form at the stretch-end comparison. Stretch lengths deliberately
	// straddle the sampler's level-orbit and the roots' watchdog wraps.
	for _, k := range []int{1, 2, 37, 150} {
		d.step(k, false)
		if wl.Eng.LastActive() != 0 {
			t.Fatalf("%s: frontier refilled during a quiet stretch (active=%d)", d.tag(), wl.Eng.LastActive())
		}
	}

	// Phase 3: fault storm over the whole menu — every fault melts a frozen
	// region; wake, detection, and recovery must agree round for round.
	rng := rand.New(rand.NewSource(SubSeed(seed, 1)))
	for kind := FaultKind(0); kind < numFaultKinds; kind++ {
		v := rng.Intn(g.N())
		if !d.inject(v, kind, rng) {
			continue
		}
		compareWorklist(t, d.tag()+" (post-inject)", d.g, dense, wl)
		d.step(20+rng.Intn(12), true)
		d.step(31, false) // lazy aftermath: untouched regions keep coasting
	}

	// Phase 4: churn events of every kind, applied to both live graphs.
	for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy, ChurnWeightBreak, ChurnAddLight} {
		if !d.churn(kind, rng) {
			t.Logf("%s: no %v mutation available, skipped", d.tag(), kind)
			continue
		}
		d.step(16+rng.Intn(8), true)
	}

	// Phase 5: campaign-style burst — several simultaneous faults plus a
	// random churn event in one round, then a long randomized tail mixing
	// every-round and endpoint-only comparison.
	for b := 0; b < 2; b++ {
		for i := 0; i < 3; i++ {
			d.inject(rng.Intn(g.N()), FaultKind(rng.Intn(int(numFaultKinds))), rng)
		}
		if ev, apply, ok := randomChurn(g, l.Tree, rng); ok {
			d.applyChurn(ev, apply)
		}
		compareWorklist(t, d.tag()+" (post-burst)", d.g, dense, wl)
		d.step(24, true)
		d.step(40+rng.Intn(40), false)
	}

	for _, r := range []*Runner{dense, wl} {
		if err := r.Eng.G().Validate(); err != nil {
			t.Fatalf("graph invariants violated after the schedule: %v", err)
		}
	}
	t.Logf("parity held: settled at round %d, finished at round %d, %d alarm rounds, worklist steps %d",
		settleRound, d.round, len(d.alarmRec), wl.Eng.StepsTaken())
}

func TestWorklistParitySerial(t *testing.T)   { runWorklistParitySchedule(t, 41, false, false) }
func TestWorklistParityParallel(t *testing.T) { runWorklistParitySchedule(t, 43, true, false) }

// The same schedule from the quiescence seed: phase 1's settle ends after
// the first round, and every later phase melts a network that never
// settled naturally.
func TestWorklistParitySeededSerial(t *testing.T)   { runWorklistParitySchedule(t, 41, false, true) }
func TestWorklistParitySeededParallel(t *testing.T) { runWorklistParitySchedule(t, 43, true, true) }
