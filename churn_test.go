package ssmst

import (
	"math/rand"
	goruntime "runtime"
	"ssmst/internal/raceflag"
	"testing"
)

// TestApplyChurnFacade drives the public churn surface: every menu kind
// through Verifier.ApplyChurn — MST-preserving kinds silent, MST-breaking
// kinds detected.
func TestApplyChurnFacade(t *testing.T) {
	g := RandomGraph(64, 160, 21)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(l, Sync, 1)
	budget := DetectionBudget(g.N())
	if err := v.RunQuiet(budget / 4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy} {
		ev, ok := v.ApplyChurn(kind, rng)
		if !ok {
			t.Fatalf("no %v mutation available", kind)
		}
		if err := v.RunQuiet(60); err != nil {
			t.Fatalf("MST-preserving %v raised an alarm: %v", ev, err)
		}
	}
	ev, ok := v.ApplyChurn(ChurnWeightBreak, rng)
	if !ok {
		t.Fatal("no weight-break mutation available")
	}
	rounds, alarms, detected := v.RunUntilAlarm(2 * budget)
	if !detected {
		t.Fatalf("MST-breaking %v was never detected", ev)
	}
	if rounds > budget {
		t.Fatalf("detection took %d rounds, over the budget %d", rounds, budget)
	}
	if len(alarms) == 0 {
		t.Fatal("detection reported no alarming nodes")
	}
}

// TestChurnQuietAllocFree is the live-topology half of the zero-alloc gate:
// after a burst of MST-preserving churn (weight flip, link cut with port
// compaction, link insertion), the settled verifier round is again
// allocation-free with zero label copies — the mutation invalidates exactly
// the touched region and the fast paths resume. The rounds that absorb each
// event allocate nothing either: the invalidated nodes re-derive their
// memos (the static verdict, the label width) in place.
func TestChurnQuietAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := RandomGraph(192, 480, 6)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(l, Sync, 1)
	// Warm up, so that no one-time fill (a scratch buffer reaching its
	// capacity, a runtime cache) lands in a measured window below; 64
	// rounds of 192 nodes are a wide margin.
	v.Eng.RunSyncRounds(64)
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy} {
		if _, ok := v.ApplyChurn(kind, rng); !ok {
			t.Fatalf("no %v mutation available", kind)
		}
		// Absorb the invalidated region.
		if n := mallocsDuring(func() { v.Eng.RunSyncRounds(4) }); n != 0 {
			t.Errorf("%d allocs in the 4 rounds absorbing %v, want 0", n, kind)
		}
	}
	// Let every recycled buffer (including the grown-degree endpoints') reach
	// steady-state capacity again.
	v.Eng.RunSyncRounds(8)
	copies := v.Machine.LabelCopies()
	if avg := testing.AllocsPerRun(16, v.Eng.StepSync); avg != 0 {
		t.Errorf("%.1f allocs per post-churn quiet round, want 0", avg)
	}
	if got := v.Machine.LabelCopies() - copies; got != 0 {
		t.Errorf("%d label copies across post-churn quiet rounds, want 0 (labels are shared)", got)
	}
	if err := v.RunQuiet(40); err != nil {
		t.Fatalf("post-churn network is not quiet: %v", err)
	}
}

// mallocsDuring returns the heap allocations f makes. Unlike
// testing.AllocsPerRun it runs f exactly once, with no warm-up run to
// absorb a first-call allocation, so it can gate rounds that happen once.
// It pins GOMAXPROCS to 1 while f runs, as AllocsPerRun does.
func mallocsDuring(f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	f()
	goruntime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}
