package selfstab

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// parityPair steps one transformer on a dense engine (the reference:
// NewRunner with Worklist cleared before the first round) and one on the
// worklist engine NewRunner arms, each on its own copy of the graph so that
// churn reaches each through its own engine, and compares them after every
// round.
type parityPair struct {
	t         *testing.T
	dense, wl *Runner
	round     int
	// snapshotsWhileSkipping counts label-oracle snapshots taken inside a
	// worklist round that skipped some node: Engine.State materializes
	// skipped nodes on read, from inside another node's step.
	snapshotsWhileSkipping int
}

// newParityPair builds the pair on copies of g. The dense reference steps
// serially; pool forces the worker pool on the worklist engine, which fans
// out every round that steps more than one chunk of nodes.
func newParityPair(t *testing.T, g *graph.Graph, seed int64, pool bool) *parityPair {
	t.Helper()
	p := &parityPair{t: t}
	p.dense = NewRunner(g.Clone(), g.N(), verify.Sync, seed)
	p.dense.Eng.Worklist = false
	p.dense.Eng.Parallel = false
	p.wl = NewRunner(g.Clone(), g.N(), verify.Sync, seed)
	p.wl.Eng.Parallel = pool
	if pool {
		p.wl.Eng.Workers = runtime.PoolWorkers()
	}
	snap := p.wl.M.Snapshot
	p.wl.M.Snapshot = func() []*SState {
		if p.wl.Eng.LastActive() < g.N() {
			p.snapshotsWhileSkipping++
		}
		return snap()
	}
	return p
}

func (p *parityPair) tag() string { return fmt.Sprintf("round %d", p.round) }

// step advances both engines k rounds. Every round it compares the O(1)
// instrumentation — AnyAlarm, AlarmNodes, AllDone, MaxStateBits — and, when
// states is set, every node's state, read through Engine.State (which
// materializes the worklist's skipped nodes) and compared directly, memos
// included. Without states, skipped nodes lag through the stretch and
// replay it in one CoastAdvance when the final comparison reads them.
func (p *parityPair) step(k int, states bool) {
	p.t.Helper()
	for i := 0; i < k; i++ {
		p.dense.Step()
		p.wl.Step()
		p.round++
		p.compareCounters()
		if states {
			p.compareStates()
		}
	}
	if !states && k > 0 {
		p.compareStates()
	}
}

func (p *parityPair) compareCounters() {
	p.t.Helper()
	d, w := p.dense.Eng, p.wl.Eng
	di, da := d.AnyAlarm()
	wi, wa := w.AnyAlarm()
	if di != wi || da != wa {
		p.t.Fatalf("%s: AnyAlarm diverged: dense (%d, %v), worklist (%d, %v)", p.tag(), di, da, wi, wa)
	}
	if a, b := d.AlarmNodes(), w.AlarmNodes(); !reflect.DeepEqual(a, b) {
		p.t.Fatalf("%s: AlarmNodes diverged: dense %v, worklist %v", p.tag(), a, b)
	}
	if a, b := d.AllDone(), w.AllDone(); a != b {
		p.t.Fatalf("%s: AllDone diverged: dense %v, worklist %v", p.tag(), a, b)
	}
	if a, b := d.MaxStateBits(), w.MaxStateBits(); a != b {
		p.t.Fatalf("%s: MaxStateBits diverged: dense %d, worklist %d", p.tag(), a, b)
	}
}

func (p *parityPair) compareStates() {
	p.t.Helper()
	for v := 0; v < p.dense.Eng.G().N(); v++ {
		a, b := p.dense.Eng.State(v).(*SState), p.wl.Eng.State(v).(*SState)
		if !sameState(a, b) {
			p.t.Fatalf("%s node %d: worklist state diverged from dense\ndense    %+v\nworklist %+v", p.tag(), v, a, b)
		}
	}
}

// sameState is reflect.DeepEqual on two transformer states, memos included,
// with the header and the flat build slots compared as values: the suites
// compare every node after every round.
func sameState(a, b *SState) bool {
	ha, hb := *a, *b
	ha.Build, ha.BuildPrev, ha.Check = nil, nil, nil
	hb.Build, hb.BuildPrev, hb.Check = nil, nil, nil
	return ha == hb && sameBuildSlot(a.Build, b.Build) && sameBuildSlot(a.BuildPrev, b.BuildPrev) &&
		reflect.DeepEqual(a.Check, b.Check)
}

func sameBuildSlot(a, b *syncmst.State) bool {
	return a == b || (a != nil && b != nil && *a == *b)
}

// untilStable steps both engines, comparing every round, until the dense
// reference is stable with an MST output; the worklist must agree.
func (p *parityPair) untilStable(budget int) {
	p.t.Helper()
	for i := 0; i < budget; i++ {
		p.step(1, true)
		if p.dense.Stabilized() && p.dense.OutputIsMST() {
			if !p.wl.Stabilized() || !p.wl.OutputIsMST() {
				p.t.Fatalf("%s: the dense reference is stable, the worklist is not", p.tag())
			}
			return
		}
	}
	p.t.Fatalf("%s: not stable within %d rounds", p.tag(), budget)
}

// both applies f to the dense and the worklist runner and demands the same
// answer from each, and the same states after it.
func (p *parityPair) both(what string, f func(*Runner) any) any {
	p.t.Helper()
	a, b := f(p.dense), f(p.wl)
	if !reflect.DeepEqual(a, b) {
		p.t.Fatalf("%s: %s diverged: dense %v, worklist %v", p.tag(), what, a, b)
	}
	p.compareCounters()
	p.compareStates()
	return a
}

// TestTransformerWorklistParityEpochs runs the clean start through three
// epochs — the first stabilization, a label fault's detection and rebuild,
// a regional outage's — and asserts that the worklist skipped the lockstep
// pulses it was armed for. Each epoch starts with a stretch of unread
// rounds, so skipped nodes replay long lags in one CoastAdvance.
func TestTransformerWorklistParityEpochs(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	p := newParityPair(t, g, 2, false)
	budget := 2 * p.dense.StabilizationBudget()
	lazy := p.dense.M.buildDur() / 2
	p.step(lazy, false)
	p.untilStable(budget)
	if d, w := p.dense.Eng.StepsTaken(), p.wl.Eng.StepsTaken(); 5*w > d {
		t.Errorf("clean epoch: the worklist took %d steps, the dense engine %d; want under a fifth", w, d)
	}
	epoch := p.dense.Eng.State(0).(*SState).Epoch
	if !p.both("label fault", func(r *Runner) any { return r.InjectLabelFault(5, rand.New(rand.NewSource(11))) }).(bool) {
		t.Fatal("the label fault did not apply")
	}
	p.step(lazy, false)
	p.untilStable(budget)
	p.both("regional outage", func(r *Runner) any {
		c, victims := r.ApplyRegionalOutage(1, 4)
		return fmt.Sprint(c, victims)
	})
	p.step(lazy, false)
	p.untilStable(budget)
	if e := p.dense.Eng.State(0).(*SState).Epoch; e < epoch+2 {
		t.Fatalf("epoch %d after two faults from epoch %d: a fault did not start an epoch", e, epoch)
	}
}

// TestTransformerWorklistParityScramble starts both engines from the same
// arbitrary states: poison verifier states, corrupted pulses, mixed epochs
// and phases.
func TestTransformerWorklistParityScramble(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(14, 34, seed)
		p := newParityPair(t, g, seed, false)
		p.both("scramble", func(r *Runner) any {
			r.Scramble(rand.New(rand.NewSource(seed * 7)))
			return nil
		})
		p.untilStable(3 * p.dense.StabilizationBudget())
	}
}

// TestTransformerWorklistParityChurn applies every churn kind to a stable
// network: the MST-preserving kinds must leave it checking quietly, the
// breaking kinds start an epoch that rebuilds the mutated graph's MST.
func TestTransformerWorklistParityChurn(t *testing.T) {
	g := graph.RandomConnected(16, 40, 9)
	p := newParityPair(t, g, 1, false)
	p.untilStable(2 * p.dense.StabilizationBudget())
	for i, kind := range []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy,
		verify.ChurnWeightBreak, verify.ChurnAddLight} {
		p.churn(kind, int64(20+i))
		p.step(24, true)
		p.untilStable(2 * p.dense.StabilizationBudget())
	}
}

// churn applies one planned churn event of the given kind to both runners.
func (p *parityPair) churn(kind verify.ChurnKind, seed int64) {
	p.t.Helper()
	applied := false
	p.both("churn "+kind.String(), func(r *Runner) any {
		ev, ok := r.ApplyChurn(kind, rand.New(rand.NewSource(seed)))
		applied = ok
		return fmt.Sprint(ev, ok)
	})
	if !applied {
		p.t.Fatalf("%s: no %v event could be planned", p.tag(), kind)
	}
}

// TestTransformerWorklistParityPool runs the worklist engine on the forced
// worker pool at n=160, more than one stepping chunk (128 nodes), so every
// round that steps all nodes fans out over two workers: the check phase of
// a seeded network, an MST-preserving churn event, and a regional outage's
// detection, epoch flood, resync and the first SYNC_MST phases of the
// rebuild, whose timed pulses wake every node at once.
func TestTransformerWorklistParityPool(t *testing.T) {
	g := graph.RandomConnected(160, 400, 4)
	l, err := verify.Mark(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	p := newParityPair(t, g, 3, true)
	p.both("seed", func(r *Runner) any { r.SeedStable(l); return nil })
	p.step(20, true)
	p.churn(verify.ChurnWeightKeep, 6)
	p.step(20, true)
	p.both("regional outage", func(r *Runner) any {
		c, victims := r.ApplyRegionalOutage(1, 8)
		return fmt.Sprint(c, victims)
	})
	full := 0
	for i := 0; i < p.dense.M.resyncDur()+400; i++ {
		p.step(1, true)
		if p.wl.Eng.LastActive() == g.N() {
			full++
		}
	}
	if p.dense.Eng.State(0).(*SState).Phase != PhaseBuild || full == 0 {
		t.Fatalf("the rebuild did not reach the build phase on the pool (%d all-node rounds)", full)
	}
}

// TestTransformerWorklistParityLateSkew sets one end of a long path a few
// pulses back late in the label phase. The delay spreads one hop per
// round, so the rest of the path enters the check phase first — and the
// label oracle, inside the step of the first node to enter it, snapshots
// every node through Engine.State — while the nodes the delay has passed
// pulse in lockstep again and are skipped: the snapshot materializes them
// in the middle of a round, one that fans out over the worker pool in the
// pool run. Both engines start from a worklist run's states a little
// before the skew.
func TestTransformerWorklistParityLateSkew(t *testing.T) {
	for _, pool := range []bool{false, true} {
		g := graph.Path(400, 5)
		lead := NewRunner(g.Clone(), g.N(), verify.Sync, 1)
		end := lead.M.labelDur()
		for {
			lead.Step()
			if st := lead.Eng.State(0).(*SState); st.Phase == PhaseLabel && st.Pulse >= end-24 {
				break
			}
		}
		p := newParityPair(t, g, 1, pool)
		p.both("start", func(r *Runner) any {
			for v := 0; v < g.N(); v++ {
				r.Eng.SetState(v, lead.Eng.State(v).Clone())
			}
			return nil
		})
		p.step(8, true)
		p.both("late skew", func(r *Runner) any {
			st := r.Eng.State(0).Clone().(*SState)
			st.Pulse -= 8
			r.Eng.SetState(0, st)
			return nil
		})
		p.untilStable(2 * p.dense.StabilizationBudget())
		if p.snapshotsWhileSkipping == 0 {
			t.Errorf("pool=%v: no label-oracle snapshot ran inside a round that skipped nodes", pool)
		}
	}
}
