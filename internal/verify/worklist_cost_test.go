package verify

import (
	"math/rand"
	"ssmst/internal/raceflag"
	"testing"

	"ssmst/internal/graph"
)

// The quiet-round cost gates: once a worklist network freezes, a round must
// cost nothing — zero machine steps (the O(active + Δ) contract with an
// empty active set), zero heap allocations, zero label copies — and a melt
// must cost exactly the active set it wakes, settling back to zero.
func TestWorklistQuietRoundCost(t *testing.T) {
	g := graph.RandomConnected(64, 150, 31)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newColdWorklistRunner(l, 9)
	r.Eng.Parallel = false
	budget := DetectionBudget(g.N())
	settled := false
	for i := 0; i < budget; i++ {
		r.Step()
		if r.Eng.LastActive() == 0 {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatalf("network never froze within %d rounds", budget)
	}

	// Gate 1: a quiet coasted round performs zero machine steps and copies
	// zero labels. StepsTaken counts every node activation, so the delta
	// over k rounds IS the summed active-set size.
	steps, copies := r.Eng.StepsTaken(), r.Machine.LabelCopies()
	for i := 0; i < 50; i++ {
		r.Step()
		if r.Eng.LastActive() != 0 {
			t.Fatalf("quiet round %d re-activated %d nodes", i+1, r.Eng.LastActive())
		}
	}
	if got := r.Eng.StepsTaken() - steps; got != 0 {
		t.Fatalf("%d machine steps over 50 quiet coasted rounds, want 0", got)
	}
	if got := r.Machine.LabelCopies() - copies; got != 0 {
		t.Fatalf("%d label copies over 50 quiet coasted rounds, want 0", got)
	}

	// Gate 2: zero heap allocations per quiet round.
	if raceflag.Enabled {
		t.Log("race instrumentation allocates; skipping the alloc gate")
	} else if avg := testing.AllocsPerRun(100, func() { r.Step() }); avg != 0 {
		t.Fatalf("quiet coasted round allocates %.1f times, want 0", avg)
	}

	// Gate 3: a melt costs exactly the woken active set, round for round,
	// and after a TRANSIENT fault (train-state scramble, which washes out
	// of a correct instance) the network re-freezes and the per-round step
	// count returns to zero.
	rng := rand.New(rand.NewSource(77))
	if !r.InjectKind(11, FaultTrainDyn, rng) {
		t.Fatal("FaultTrainDyn must always apply")
	}
	quietAgain := -1
	for i := 0; i < 2*budget; i++ {
		before := r.Eng.StepsTaken()
		r.Step()
		active := r.Eng.LastActive()
		if got := r.Eng.StepsTaken() - before; got != int64(active) {
			t.Fatalf("melt round %d: %d machine steps for an active set of %d", i+1, got, active)
		}
		if active > g.N() {
			t.Fatalf("melt round %d: active set %d exceeds n=%d", i+1, active, g.N())
		}
		if active == 0 {
			quietAgain = i + 1
			break
		}
	}
	if quietAgain < 0 {
		t.Fatalf("network never re-froze within %d rounds of the transient fault", 2*budget)
	}
	steps = r.Eng.StepsTaken()
	for i := 0; i < 30; i++ {
		r.Step()
	}
	if got := r.Eng.StepsTaken() - steps; got != 0 {
		t.Fatalf("%d machine steps over 30 post-recovery rounds, want 0", got)
	}
	t.Logf("re-froze %d rounds after the transient fault", quietAgain)

	// Gate 4: a PERSISTENT label fault keeps exactly the region that must
	// stay alarmed awake — coasting is forbidden under an alarm — while the
	// rest of the network re-freezes: the steady-state active set localizes
	// to a neighbourhood of the fault instead of the whole graph.
	if !r.InjectKind(11, FaultSPDist, rng) {
		t.Fatal("FaultSPDist must always apply")
	}
	r.Eng.RunSyncRounds(2 * budget)
	active := r.Eng.LastActive()
	if active == 0 {
		t.Fatal("persistent label fault froze back into coasting (missed detection)")
	}
	if active >= g.N()/2 {
		t.Fatalf("persistent fault keeps %d/%d nodes awake; wakefulness failed to localize", active, g.N())
	}
	if _, bad := r.Eng.AnyAlarm(); !bad {
		t.Fatal("persistent label fault not alarmed in the steady state")
	}
	t.Logf("persistent fault steady state: %d/%d nodes awake", active, g.N())
}

// TestWorklistChurnSettles pins the same gate under topology churn: an
// MST-preserving mutation wakes a region, the region re-certifies, and the
// steady-state round cost returns to zero machine steps.
func TestWorklistChurnSettles(t *testing.T) {
	g := graph.RandomConnected(64, 150, 33)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newColdWorklistRunner(l, 9)
	r.Eng.Parallel = false
	budget := DetectionBudget(g.N())
	froze := false
	for i := 0; i < budget && !froze; i++ {
		r.Step()
		froze = r.Eng.LastActive() == 0
	}
	if !froze {
		t.Fatal("network never froze")
	}
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy} {
		if _, ok := r.ApplyChurn(kind, rng); !ok {
			t.Logf("no %v mutation available, skipped", kind)
			continue
		}
		refroze := false
		for i := 0; i < 2*budget; i++ {
			r.Step()
			if _, bad := r.Eng.AnyAlarm(); bad {
				t.Fatalf("MST-preserving churn %v raised an alarm", kind)
			}
			if r.Eng.LastActive() == 0 {
				refroze = true
				break
			}
		}
		if !refroze {
			t.Fatalf("network never re-froze after churn %v", kind)
		}
	}
	steps := r.Eng.StepsTaken()
	r.Eng.RunSyncRounds(40)
	if got := r.Eng.StepsTaken() - steps; got != 0 {
		t.Fatalf("%d machine steps over 40 post-churn quiet rounds, want 0", got)
	}
}
