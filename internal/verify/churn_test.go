package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// markCopy marks a copy of g0, so every runner built on the result steps a
// graph of its own.
func markCopy(t *testing.T, g0 *graph.Graph) *Labeled {
	t.Helper()
	l, err := Mark(g0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// churnRunners builds the three configurations every churn assertion runs
// against: incremental serial, incremental parallel-forced, and the
// full-recheck reference — each on its own marked copy of one graph.
func churnRunners(t *testing.T, n, m int, seed int64) (inc, par, full *Runner) {
	t.Helper()
	g0 := graph.RandomConnected(n, m, seed)
	inc = NewRunner(markCopy(t, g0), Sync, 3)
	inc.Eng.Parallel = false
	par = NewRunner(markCopy(t, g0), Sync, 3)
	par.Eng.Workers = runtime.PoolWorkers()
	full = NewFullRecheckRunner(markCopy(t, g0), Sync, 3)
	full.Eng.Parallel = false
	return inc, par, full
}

// applyEach applies one planned churn event to every runner's own graph.
func applyEach(apply func(*graph.Graph) error, runners ...*Runner) error {
	for _, r := range runners {
		if err := r.Eng.MutateTopology(apply); err != nil {
			return err
		}
	}
	return nil
}

// TestChurnParityWithFullRecheck is the acceptance criterion of the
// live-topology subsystem: through a randomized churn schedule covering
// every mutation kind — weight perturbations that preserve and break
// MST-hood, link cuts with port compaction, link insertions closing heavy
// and light cycles — the incremental verifier (serial and parallel-forced)
// stays bit-identical to the full-recheck reference in every
// protocol-visible field, every node, every round, including MaxStateBits.
func TestChurnParityWithFullRecheck(t *testing.T) {
	inc, par, full := churnRunners(t, 80, 200, 13)
	runners := []*Runner{inc, par, full}
	g, l := inc.Eng.G(), inc.Labeled // events are planned on one copy, applied to each

	compare := func(r int) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			want := stripEpoch(full.Eng.State(v))
			if got := stripEpoch(inc.Eng.State(v)); !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d node %d: incremental state diverged from full re-check under churn\n got %+v\nwant %+v", r, v, got, want)
			}
			if got := stripEpoch(par.Eng.State(v)); !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d node %d: parallel incremental state diverged from full re-check under churn", r, v)
			}
			if got, fresh := inc.Eng.State(v).BitSize(), want.BitSize(); got != fresh {
				t.Fatalf("round %d node %d: memoized BitSize %d, cold re-measure %d", r, v, got, fresh)
			}
		}
		if ib, pb, fb := inc.Eng.MaxStateBits(), par.Eng.MaxStateBits(), full.Eng.MaxStateBits(); ib != fb || pb != fb {
			t.Fatalf("round %d: MaxStateBits diverged under churn: incremental %d parallel %d full %d", r, ib, pb, fb)
		}
	}
	round := 0
	step := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			for _, r := range runners {
				r.Step()
			}
			round++
			compare(round)
		}
	}

	step(25) // memos settle before the storm

	// A deterministic prefix guarantees every kind is exercised, then a
	// randomized tail (randomChurn: uniform kind draw with cross-kind
	// retry, so the schedule never stalls) mixes kinds and interleaves
	// quiet stretches.
	rng := rand.New(rand.NewSource(29))
	kinds := []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy, ChurnWeightBreak, ChurnAddLight}
	for i := 0; i < 9; i++ {
		var (
			ev    ChurnEvent
			apply func(*graph.Graph) error
			ok    bool
		)
		if i < len(kinds) {
			ev, apply, ok = PlanChurn(g, l.Tree, kinds[i], rng)
		} else {
			ev, apply, ok = randomChurn(g, l.Tree, rng)
		}
		if !ok {
			t.Logf("event %d: no mutation available, skipped", i)
			continue
		}
		if err := applyEach(apply, runners...); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		compare(round) // the mutation itself (remap + invalidation) must agree
		step(12 + rng.Intn(8))
	}
	for _, r := range runners {
		if err := r.Eng.G().Validate(); err != nil {
			t.Fatalf("graph invariants violated after the schedule: %v", err)
		}
	}
}

// TestChurnDetectionRoundsMatch pins the detection-latency half of the
// acceptance criterion: an MST-breaking churn event is detected in exactly
// the same round by the incremental and the full-recheck verifier, with the
// same alarming nodes; MST-preserving events before it keep both silent.
func TestChurnDetectionRoundsMatch(t *testing.T) {
	for _, kind := range []ChurnKind{ChurnWeightBreak, ChurnAddLight} {
		inc, _, full := churnRunners(t, 96, 240, 17+int64(kind))
		g, l := inc.Eng.G(), inc.Labeled
		budget := DetectionBudget(g.N())
		rng := rand.New(rand.NewSource(int64(71 + kind)))
		both := []*Runner{inc, full}
		for _, r := range both {
			r.Eng.RunSyncRounds(budget / 4)
		}

		// An MST-preserving prelude: the network must stay silent through it.
		for _, pre := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy} {
			ev, apply, ok := PlanChurn(g, l.Tree, pre, rng)
			if !ok {
				continue
			}
			if err := applyEach(apply, both...); err != nil {
				t.Fatalf("%v: %v", ev, err)
			}
			for _, r := range both {
				if err := r.RunQuiet(40); err != nil {
					t.Fatalf("MST-preserving churn %v raised an alarm: %v", ev, err)
				}
			}
		}

		ev, apply, ok := PlanChurn(g, l.Tree, kind, rng)
		if !ok {
			t.Fatalf("no %v mutation available", kind)
		}
		if err := applyEach(apply, both...); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		rI, alarmsI, okI := inc.RunUntilAlarm(2 * budget)
		rF, alarmsF, okF := full.RunUntilAlarm(2 * budget)
		if !okI || !okF {
			t.Fatalf("%v not detected within 2×budget (incremental %v, full %v)", ev, okI, okF)
		}
		if rI != rF {
			t.Fatalf("%v: detection rounds diverged: incremental %d, full %d", ev, rI, rF)
		}
		if !reflect.DeepEqual(append([]int(nil), alarmsI...), append([]int(nil), alarmsF...)) {
			t.Fatalf("%v: alarming nodes diverged: %v vs %v", ev, alarmsI, alarmsF)
		}
		if rI > budget {
			t.Fatalf("%v: detection took %d rounds, over the Theorem 8.5 budget %d", ev, rI, budget)
		}
	}
}

// TestChurnQuietRecovery: after MST-preserving churn the incremental
// verifier returns to the quiet fast path — zero static recomputes and zero
// label copies per round once the dirty epochs age out.
func TestChurnQuietRecovery(t *testing.T) {
	inc, _, _ := churnRunners(t, 64, 160, 23)
	inc.Eng.RunSyncRounds(20)
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy} {
		ev, ok := inc.ApplyChurn(kind, rng)
		if !ok {
			t.Fatalf("no %v mutation available", kind)
		}
		if err := inc.RunQuiet(30); err != nil {
			t.Fatalf("MST-preserving churn %v raised an alarm: %v", ev, err)
		}
	}
	copies, recomputes := inc.Machine.LabelCopies(), inc.Machine.StaticRecomputes()
	if err := inc.RunQuiet(10); err != nil {
		t.Fatal(err)
	}
	if got := inc.Machine.LabelCopies() - copies; got != 0 {
		t.Fatalf("%d label copies over 10 post-churn quiet rounds, want 0 (labels are shared)", got)
	}
	if got := inc.Machine.StaticRecomputes() - recomputes; got != 0 {
		t.Fatalf("%d static recomputes over 10 post-churn quiet rounds, want 0", got)
	}
}

// TestVStateRemapPorts covers the port-remap contract directly: the parent
// pointer and candidate port track their edges through compaction, a cut
// parent collapses to a root claim, and the memos are dropped.
func TestVStateRemapPorts(t *testing.T) {
	s := &VState{ParentPort: 3, CandPort: 1, ServerCur: 2, ServerTmr: 5,
		staticValid: true, labelBitsOK: true}
	s.Want.Valid = true
	s.RemapPorts([]int{0, 1, -1, 2}) // port 2 removed
	if s.ParentPort != 2 || s.CandPort != 1 {
		t.Fatalf("remap moved ports wrong: parent %d cand %d", s.ParentPort, s.CandPort)
	}
	if s.staticValid || s.labelBitsOK {
		t.Fatal("remap must drop the simulator-side memos")
	}
	if s.ServerCur != 0 || s.ServerTmr != 0 || s.Want.Valid {
		t.Fatal("remap must restart the async server sweep (stale cursor/Want)")
	}
	s.RemapPorts([]int{0, -1, 1}) // the candidate edge itself cut
	if s.CandPort != -1 || s.ParentPort != 1 {
		t.Fatalf("cut candidate: parent %d cand %d", s.ParentPort, s.CandPort)
	}
	s.RemapPorts([]int{0, -1}) // the parent edge itself cut
	if s.ParentPort != -1 {
		t.Fatalf("cut parent edge must claim root, got %d", s.ParentPort)
	}
	// A root claim (-1) is stable under further remaps.
	s.RemapPorts([]int{0})
	if s.ParentPort != -1 {
		t.Fatalf("root claim disturbed by remap: %d", s.ParentPort)
	}
}

// TestTreeCycleMaxWeight: churn planning reads each hop's weight from the
// graph it is given, by endpoints, so a reweighted and compacted copy plans
// correctly against a tree built on the original; an empty path, or a tree
// link the graph lacks, gives ok=false.
func TestTreeCycleMaxWeight(t *testing.T) {
	g := graph.New(4, nil)
	g.MustAddEdge(0, 3, 20) // the one non-tree edge, at index 0
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 9)
	g.MustAddEdge(2, 3, 3)
	tree, err := graph.TreeFromEdges(g, []int{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, g *graph.Graph, u, v int, want graph.Weight, wantOK bool) {
		t.Helper()
		if w, ok := treeCycleMaxWeight(g, tree, u, v); ok != wantOK || ok && w != want {
			t.Errorf("%s: (%d,%d) = %d, %v; want %d, %v", name, u, v, w, ok, want, wantOK)
		}
	}
	check("original", g, 0, 3, 9, true)
	check("original", g, 3, 0, 9, true)
	check("empty path", g, 2, 2, 0, false)

	// Cutting the non-tree edge moves (2,3) from index 3 into slot 0.
	moved := g.Clone()
	if err := moved.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	if err := moved.SetWeight(0, 12); err != nil {
		t.Fatal(err)
	}
	check("compacted copy", moved, 1, 3, 12, true)
	check("compacted copy", moved, 0, 1, 5, true)

	severed := g.Clone()
	if err := severed.RemoveEdge(severed.EdgeBetween(1, 2)); err != nil {
		t.Fatal(err)
	}
	check("severed copy", severed, 0, 3, 0, false)
	check("severed copy", severed, 2, 3, 3, true)
}

// randomChurn draws a kind uniformly and plans it, retrying across kinds so
// a schedule never stalls on a graph that momentarily lacks one kind.
func randomChurn(g *graph.Graph, tree *graph.Tree, rng *rand.Rand) (ChurnEvent, func(*graph.Graph) error, bool) {
	start := rng.Intn(NumChurnKinds)
	for i := 0; i < NumChurnKinds; i++ {
		kind := ChurnKind((start + i) % NumChurnKinds)
		if ev, apply, ok := PlanChurn(g, tree, kind, rng); ok {
			return ev, apply, true
		}
	}
	return ChurnEvent{}, nil, false
}
