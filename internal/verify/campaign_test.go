package verify

import (
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
)

// TestSubSeedReproducible: the derived-seed function is deterministic in
// (seed, path) and decorrelates distinct paths — the satellite contract
// that lets one recorded seed replay a whole campaign.
func TestSubSeedReproducible(t *testing.T) {
	if SubSeed(1, 2, 3) != SubSeed(1, 2, 3) {
		t.Fatal("SubSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 7, -3} {
		for p := int64(0); p < 8; p++ {
			s := SubSeed(seed, p)
			if seen[s] {
				t.Fatalf("seed %d path %d: derived seed %d collides", seed, p, s)
			}
			seen[s] = true
		}
	}
	if SubSeed(5, 1, 2) == SubSeed(5, 2, 1) {
		t.Error("SubSeed ignores path order")
	}
}

// TestNoOpFaultLeavesEpochUntouched is the ApplyFault hardening regression:
// injecting a fault kind that is a no-op for the victim's state must report
// changed=false AND leave the engine untouched — no dirty-epoch bump, so
// the incremental verifier performs zero extra static re-checks afterwards.
// (Before the hardening, the unconditional SetState bumped the epoch and
// invalidated memos, hiding memo-invalidation bugs from the parity suites.)
func TestNoOpFaultLeavesEpochUntouched(t *testing.T) {
	const seed = int64(19)
	g := graph.RandomConnected(48, 120, seed)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, seed)
	r.Eng.RunSyncRounds(40) // memos settled: quiet rounds recompute nothing

	// Find a genuinely inapplicable (node, kind) pair by probing clones.
	noopNode, noopKind := -1, FaultKind(-1)
	for v := 0; v < g.N() && noopNode < 0; v++ {
		for _, kind := range StaticFaultKinds() {
			s := r.Eng.State(v).Clone().(*VState)
			if !ApplyFault(s, kind, rand.New(rand.NewSource(seed)), g.Degree(v)) {
				noopNode, noopKind = v, kind
				break
			}
		}
	}
	if noopNode < 0 {
		t.Skipf("seed %d: no no-op (node, kind) pair on this instance", seed)
	}

	quietDelta := func() int64 {
		before := r.Machine.StaticRecomputes()
		r.Eng.RunSyncRounds(8)
		return r.Machine.StaticRecomputes() - before
	}
	if d := quietDelta(); d != 0 {
		t.Fatalf("seed %d: quiet network recomputed %d static verdicts before any injection", seed, d)
	}
	if r.InjectKind(noopNode, noopKind, rand.New(rand.NewSource(seed))) {
		t.Fatalf("seed %d: probe said kind %d is a no-op at node %d but InjectKind reported a change", seed, noopKind, noopNode)
	}
	if d := quietDelta(); d != 0 {
		t.Errorf("seed %d: no-op injection caused %d static recomputes (spurious dirty-epoch bump)", seed, d)
	}
	// Sanity: a real fault must flow through the same counter.
	applied := false
	rng := rand.New(rand.NewSource(seed + 1))
	for v := 0; v < g.N() && !applied; v++ {
		applied = r.InjectKind(v, FaultSPDist, rng)
	}
	if !applied {
		t.Fatalf("seed %d: could not apply any real fault", seed)
	}
	if d := quietDelta(); d == 0 {
		t.Errorf("seed %d: real fault caused no static recomputes — the counter is not observing injections", seed)
	}
}

// TestNoOpFaultPreservesMemos: the state-level contract — a no-op
// ApplyFault leaves the memoized static verdict intact, a real one drops it.
func TestNoOpFaultPreservesMemos(t *testing.T) {
	const seed = int64(29)
	g := graph.RandomConnected(32, 80, seed)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, seed)
	r.Eng.RunSyncRounds(20)
	for v := 0; v < g.N(); v++ {
		s := r.Eng.State(v).Clone().(*VState)
		if !s.staticValid {
			continue
		}
		for _, kind := range StaticFaultKinds() {
			c := s.Clone().(*VState)
			changed := ApplyFault(c, kind, rand.New(rand.NewSource(seed)), g.Degree(v))
			if !changed && !c.staticValid {
				t.Fatalf("seed %d node %d kind %d: no-op fault dropped the static memo", seed, v, kind)
			}
			if changed && c.staticValid {
				t.Fatalf("seed %d node %d kind %d: real fault left the static memo valid", seed, v, kind)
			}
		}
	}
}

// TestRegionalOutage: every node in the ball is corrupted, detection
// follows within the budget, and the outage is byte-for-byte reproducible
// from its seed.
func TestRegionalOutage(t *testing.T) {
	const seed = int64(41)
	g := graph.RandomConnected(64, 160, seed)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	budget := DetectionBudget(g.N())
	r := NewRunner(l, Sync, seed)
	r.Eng.RunSyncRounds(budget / 4)
	center, victims := r.ApplyRegionalOutage(2, seed)
	ball := 0
	for _, d := range g.BFSDistances(center) {
		if d >= 0 && d <= 2 {
			ball++
		}
	}
	if len(victims) != ball {
		t.Fatalf("seed %d: corrupted %d of %d nodes in the radius-2 ball around %d", seed, len(victims), ball, center)
	}
	rounds, alarms, ok := r.RunUntilAlarm(budget)
	if !ok {
		t.Fatalf("seed %d: regional outage (center %d, %d victims) not detected within %d rounds", seed, center, len(victims), budget)
	}
	t.Logf("seed %d: outage of %d nodes detected in %d rounds at %d nodes", seed, len(victims), rounds, len(alarms))

	// Reproducibility: a fresh runner with the same seeds corrupts the
	// exact same victim set.
	r2 := NewRunner(l, Sync, seed)
	r2.Eng.RunSyncRounds(budget / 4)
	center2, victims2 := r2.ApplyRegionalOutage(2, seed)
	if center2 != center || len(victims2) != len(victims) {
		t.Fatalf("seed %d: outage not reproducible (center %d vs %d, %d vs %d victims)",
			seed, center, center2, len(victims), len(victims2))
	}
	for i := range victims {
		if victims[i] != victims2[i] {
			t.Fatalf("seed %d: victim sets diverge at %d", seed, i)
		}
	}
}

// TestFaultStorm: m faults per round for w rounds, all persistent static
// kinds — the network must alarm within the budget.
func TestFaultStorm(t *testing.T) {
	const seed = int64(43)
	g := graph.RandomConnected(64, 160, seed)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	budget := DetectionBudget(g.N())
	r := NewRunner(l, Sync, seed)
	r.Eng.RunSyncRounds(budget / 4)
	total := 0
	for wave := 0; wave < 4; wave++ {
		total += len(r.ApplyFaultStorm(3, SubSeed(seed, int64(wave))))
		r.Step()
	}
	if total == 0 {
		t.Fatalf("seed %d: storm applied no faults", seed)
	}
	rounds, _, ok := r.RunUntilAlarm(budget)
	if !ok {
		t.Fatalf("seed %d: %d-fault storm not detected within %d rounds", seed, total, budget)
	}
	t.Logf("seed %d: %d-fault storm detected in %d rounds", seed, total, rounds)
}

// TestChurnStormOracleAgreement: after a storm of topology churn the
// centralized oracles on the (mutated graph, verified tree) pair are the
// ground truth — the network must alarm iff the oracles reject, regardless
// of the storm's kind mix.
func TestChurnStormOracleAgreement(t *testing.T) {
	const seed = int64(47)
	g0 := graph.RandomConnected(48, 120, seed)
	budget := DetectionBudget(g0.N())
	preserving := []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy}

	// Preserving-only storm: oracles must keep saying MST, network silent.
	l, err := Mark(g0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Sync, seed)
	r.Eng.RunSyncRounds(budget / 4)
	var events []ChurnEvent
	for wave := 0; wave < 3; wave++ {
		events = append(events, r.ApplyChurnStorm(2, preserving, SubSeed(seed, int64(wave)))...)
		r.Step()
	}
	if len(events) == 0 {
		t.Fatalf("seed %d: preserving storm applied no events", seed)
	}
	isMST, err := oracle.CrossCheck(r.Eng.G(), r.TreeEdges(), graph.ByWeight(r.Eng.G()))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !isMST {
		t.Fatalf("seed %d: oracles reject the tree after a preserving-only storm of %d events", seed, len(events))
	}
	if err := r.RunQuiet(budget / 4); err != nil {
		t.Fatalf("seed %d: false alarm after MST-preserving storm (%v); events: %v", seed, err, events)
	}

	// Full-menu storm including breaking kinds: the oracle verdict decides.
	l2, err := Mark(g0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(l2, Sync, seed+1)
	r2.Eng.RunSyncRounds(budget / 4)
	all := []ChurnKind{ChurnWeightKeep, ChurnWeightBreak, ChurnCut, ChurnAddHeavy, ChurnAddLight}
	var events2 []ChurnEvent
	for wave := 0; wave < 3; wave++ {
		events2 = append(events2, r2.ApplyChurnStorm(2, all, SubSeed(seed+1, int64(wave)))...)
		r2.Step()
	}
	isMST2, err := oracle.CrossCheck(r2.Eng.G(), r2.TreeEdges(), graph.ByWeight(r2.Eng.G()))
	if err != nil {
		t.Fatalf("seed %d: %v", seed+1, err)
	}
	if isMST2 {
		if _, ok := r2.RunUntilQuiet(budget, budget/4); !ok {
			t.Fatalf("seed %d: oracles accept the post-storm tree but the network never settled; events: %v", seed+1, events2)
		}
	} else {
		rounds, _, ok := r2.RunUntilAlarm(budget)
		if !ok {
			t.Fatalf("seed %d: oracles reject the post-storm tree but no alarm within %d rounds; events: %v", seed+1, budget, events2)
		}
		t.Logf("seed %d: breaking storm (%d events) detected in %d rounds", seed+1, len(events2), rounds)
	}
}
