package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/oracle"
	"ssmst/internal/raceflag"
)

// The quiescence seed (coast.go, step 0): NewWorklistRunner on a fresh,
// correct instance installs the frozen configuration before the first
// round. These tests pin what the seed promises — every node certifies,
// the network is frozen and free from round 2, the seeded states are legal
// for the always-awake verifier and no wider than a natural settle's, and
// detection from the seed stays within the Theorem 8.5 budget — and that
// every other instance keeps the awake start.

// seedSeeds are the generator seeds the seeded-start tests run.
var seedSeeds = []int64{1, 2, 3}

// forEachMarked marks every family at each size and seed and runs f on it
// as a subtest, in parallel when asked: the instances are independent, and
// the verifier is serial at these sizes. A subtest that measures
// allocations must not run in parallel.
func forEachMarked(t *testing.T, sizes []int, seeds []int64, parallel bool, f func(t *testing.T, g *graph.Graph, l *Labeled, seed int64)) {
	t.Helper()
	for _, fam := range graph.Families() {
		for _, n := range sizes {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", fam, n, seed), func(t *testing.T) {
					if parallel {
						t.Parallel()
					}
					g, err := graph.ByFamily(fam, n, seed)
					if err != nil {
						t.Fatal(err)
					}
					l, err := Mark(g)
					if err != nil {
						t.Fatal(err)
					}
					f(t, g, l, seed)
				})
			}
		}
	}
}

// requireSeeded fails unless every node of r was installed coasting, i.e.
// certified by the seed.
func requireSeeded(t *testing.T, r *Runner) {
	t.Helper()
	for v := 0; v < r.Eng.G().N(); v++ {
		if !r.Eng.State(v).(*VState).coasting {
			t.Fatalf("node %d did not certify at the seed", v)
		}
	}
}

// requireCold fails unless every node of r holds exactly the state Init
// built: no seed, and nothing left behind by a rolled-back one. The label
// BitSize memo the engine's instrumentation fills at construction is the
// one field left out.
func requireCold(t *testing.T, r *Runner) {
	t.Helper()
	for v := 0; v < r.Eng.G().N(); v++ {
		got := *r.Eng.State(v).(*VState)
		got.labelBits, got.labelBitsOK = 0, false
		if want := r.Labeled.NodeState(v); !reflect.DeepEqual(&got, want) {
			t.Fatalf("node %d does not hold Init's state\n got %+v\nwant %+v", v, &got, want)
		}
	}
}

// frozenWithin2 steps a freshly seeded runner two rounds and fails unless
// the frontier has drained: round 1 steps every node once through its
// coast branch, and none re-enters.
func frozenWithin2(t *testing.T, r *Runner) {
	t.Helper()
	r.Step()
	r.Step()
	if a := r.Eng.LastActive(); a != 0 {
		t.Fatalf("%d nodes still active at round 2", a)
	}
	if _, bad := r.Eng.AnyAlarm(); bad {
		t.Fatalf("alarm at nodes %v from the seed", r.Eng.AlarmNodes())
	}
}

// coldSettle steps a cold worklist runner until its frontier drains, with
// no alarm on the way.
func coldSettle(t *testing.T, r *Runner) int {
	t.Helper()
	budget := DetectionBudget(r.Eng.G().N())
	for i := 1; i <= budget; i++ {
		r.Step()
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("false alarm at round %d of the natural settle", i)
		}
		if r.Eng.LastActive() == 0 {
			return i
		}
	}
	t.Fatalf("natural settle not frozen within %d rounds", budget)
	return 0
}

// TestSeedFreezesCorrectInstances runs TestWorklistQuietRoundCost's gates
// from the seed: every node certifies, the network is frozen within 2
// rounds, and it then stays silent at 0 steps and 0 allocations per quiet
// round for DetectionBudget rounds.
func TestSeedFreezesCorrectInstances(t *testing.T) {
	forEachMarked(t, []int{64, 256, 1024}, seedSeeds, false, func(t *testing.T, g *graph.Graph, l *Labeled, seed int64) {
		r := NewWorklistRunner(l, seed)
		requireSeeded(t, r)
		frozenWithin2(t, r)
		budget := DetectionBudget(g.N())
		steps := r.Eng.StepsTaken()
		r.Eng.RunSyncRounds(budget)
		if got := r.Eng.StepsTaken() - steps; got != 0 {
			t.Fatalf("%d machine steps over %d quiet rounds from the seed, want 0", got, budget)
		}
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("alarm at nodes %v after %d quiet rounds", r.Eng.AlarmNodes(), budget)
		}
		if raceflag.Enabled {
			return // race instrumentation allocates
		}
		if avg := testing.AllocsPerRun(100, r.Step); avg != 0 {
			t.Fatalf("a quiet round from the seed allocates %.1f times, want 0", avg)
		}
	})
}

// TestSeedBitsWithinSettle: the seeded network's MaxStateBits is at most a
// naturally settled run's on the same instance — the drained trains show
// no piece and the sampler holds none.
func TestSeedBitsWithinSettle(t *testing.T) {
	forEachMarked(t, []int{64, 256}, seedSeeds, true, func(t *testing.T, g *graph.Graph, l *Labeled, seed int64) {
		seeded := NewWorklistRunner(l, seed)
		frozenWithin2(t, seeded)
		cold := newColdWorklistRunner(l, seed)
		k := coldSettle(t, cold)
		if s, c := seeded.Eng.MaxStateBits(), cold.Eng.MaxStateBits(); s > c {
			t.Fatalf("seeded MaxStateBits %d exceeds the natural settle's %d (%d rounds)", s, c, k)
		}
	})
}

// TestSeedLegalForAwakeVerifier: the seeded states are legal for the
// always-awake verifier — Clones of them installed in a NewRunner raise no
// alarm for DetectionBudget rounds. Every node steps every round for ~40k
// rounds here, so this one runs at n=64 and one seed; the awake stretches
// of TestSeedDetection cover the other instances under the coast regime.
func TestSeedLegalForAwakeVerifier(t *testing.T) {
	forEachMarked(t, []int{64}, []int64{1}, true, func(t *testing.T, g *graph.Graph, l *Labeled, seed int64) {
		seeded := NewWorklistRunner(l, seed)
		requireSeeded(t, seeded)
		awake := NewRunner(l, Sync, seed)
		for v := 0; v < g.N(); v++ {
			awake.Eng.SetState(v, seeded.Eng.State(v).Clone())
		}
		if err := awake.RunQuiet(DetectionBudget(g.N())); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSeedDetection injects every fault kind and every churn kind into a
// seeded network, one event per fresh seeded runner. A static fault breaks
// the proof and must be detected within DetectionBudget; the transient
// FaultTrainDyn must wash out and the network re-freeze. An MST-breaking
// churn event must be one oracle.CrossCheck rejects, and be detected within
// DetectionBudget; an MST-preserving one must be one it accepts, raise no
// alarm, and end in a re-frozen network.
func TestSeedDetection(t *testing.T) {
	forEachMarked(t, []int{64, 256}, seedSeeds, true, func(t *testing.T, g *graph.Graph, l *Labeled, seed int64) {
		budget := DetectionBudget(g.N())
		rng := rand.New(rand.NewSource(SubSeed(seed, int64(g.N()))))
		for kind := FaultKind(0); kind < numFaultKinds; kind++ {
			r := NewWorklistRunner(l, seed)
			frozenWithin2(t, r)
			if !injectSomewhere(r, kind, rng) {
				t.Logf("fault kind %d applies nowhere, skipped", kind)
				continue
			}
			if kind == FaultTrainDyn {
				if _, ok := r.RunUntilQuiet(budget, 64); !ok {
					t.Fatalf("fault kind %d: alarms persist %d rounds after a transient fault", kind, budget)
				}
				refreeze(t, r, fmt.Sprintf("fault kind %d", kind), 2*budget)
				continue
			}
			if _, _, ok := r.RunUntilAlarm(budget); !ok {
				t.Fatalf("fault kind %d undetected within %d rounds of the seed", kind, budget)
			}
		}
		for kind := ChurnKind(0); kind < numChurnKinds; kind++ {
			r := NewWorklistRunner(markCopy(t, g), seed)
			frozenWithin2(t, r)
			ev, ok := r.ApplyChurn(kind, rng)
			if !ok {
				t.Logf("no %v mutation available, skipped", kind)
				continue
			}
			eg := r.Eng.G()
			isMST, err := oracle.CrossCheck(eg, r.TreeEdges(), graph.ByWeight(eg))
			if err != nil {
				t.Fatal(err)
			}
			if isMST == kind.BreaksMST() {
				t.Fatalf("%v: the oracles say MST=%v", ev, isMST)
			}
			if !isMST {
				if _, _, ok := r.RunUntilAlarm(budget); !ok {
					t.Fatalf("%v undetected within %d rounds of the seed", ev, budget)
				}
				continue
			}
			refreeze(t, r, ev.String(), 2*budget)
		}
	})
}

// injectSomewhere applies the fault kind at a random node where it is
// observable, giving up after 4n draws. The piece kinds need a node whose
// bottom train stores a piece: a corrupted top replica in a part disjoint
// from its fragment leaves a valid proof of a true statement, which no
// start of the verifier rejects.
func injectSomewhere(r *Runner, kind FaultKind, rng *rand.Rand) bool {
	n := r.Eng.G().N()
	for i := 0; i < 4*n; i++ {
		v := rng.Intn(n)
		bottom := r.Labeled.Labels[v].Train.Bottom.Stored()
		switch {
		case kind == FaultStoredPieceW && !slices.ContainsFunc(bottom, func(p hierarchy.Piece) bool { return p.W != hierarchy.NoOutWeight }):
			continue
		case kind == FaultStoredPieceID && len(bottom) == 0:
			continue
		}
		if r.InjectKind(v, kind, rng) {
			return true
		}
	}
	return false
}

// refreeze steps until the frontier drains, failing on any alarm on the way
// or if it does not drain within budget rounds.
func refreeze(t *testing.T, r *Runner, what string, budget int) {
	t.Helper()
	for i := 1; i <= budget; i++ {
		r.Step()
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("%s: alarm at nodes %v, round %d", what, r.Eng.AlarmNodes(), i)
		}
		if r.Eng.LastActive() == 0 {
			return
		}
	}
	t.Fatalf("%s: not re-frozen within %d rounds", what, budget)
}

// TestSeedGate: only a fresh MST instance seeds. MarkTree on the MST
// itself seeds with either ω choice; MarkTree on a corrupted tree, and a
// Mark instance whose tree edge was re-weighted after marking (the tree
// stays an MST, its labels do not), start awake exactly as before and
// alarm within DetectionBudget.
func TestSeedGate(t *testing.T) {
	for _, fam := range graph.Families() {
		for _, n := range []int{64, 256} {
			g, err := graph.ByFamily(fam, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := graph.NewCorruptedMSTGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			budget := DetectionBudget(n)
			for _, override := range []bool{false, true} {
				tag := fmt.Sprintf("%s n=%d override=%v", fam, n, override)
				l, err := MarkTree(g, gen.MST(), override)
				if err != nil {
					t.Fatal(err)
				}
				r := NewWorklistRunner(l, 1)
				requireSeeded(t, r)
				frozenWithin2(t, r)
				for _, k := range []int{1, 4} {
					tree, err := gen.Generate(k, SubSeed(int64(n), int64(k)))
					if err != nil {
						t.Fatal(err)
					}
					l, err := MarkTree(g, tree, override)
					if err != nil {
						t.Fatal(err)
					}
					r := NewWorklistRunner(l, 1)
					requireCold(t, r)
					if _, _, ok := r.RunUntilAlarm(budget); !ok {
						t.Fatalf("%s k=%d: corrupted tree not detected within %d rounds", tag, k, budget)
					}
				}
			}

			// Lower one tree edge's weight below every weight after Mark:
			// still the MST, but its candidate's ω̂ is stale.
			g2 := g.Clone()
			l, err := Mark(g2)
			if err != nil {
				t.Fatal(err)
			}
			e := l.Tree.ParentEdge[l.Tree.DFSOrder()[n/2]]
			min := g2.Edge(e).W
			for _, ed := range g2.Edges() {
				if ed.W < min {
					min = ed.W
				}
			}
			if err := g2.SetWeight(e, min-1); err != nil {
				t.Fatal(err)
			}
			if !oracle.TLightness(g2, l.Tree.EdgeSet(), graph.ByWeight(g2)).IsMST {
				t.Fatalf("%s n=%d: lowering a tree edge broke the MST", fam, n)
			}
			r := NewWorklistRunner(l, 1)
			requireCold(t, r)
			if _, _, ok := r.RunUntilAlarm(budget); !ok {
				t.Fatalf("%s n=%d: re-weighted tree edge not detected within %d rounds", fam, n, budget)
			}
		}
	}
}

// TestSeedAllOrNothing: when the gate passes but one node fails
// certification, no state changes — even at the nodes visited before the
// failure — and the runner starts awake. The instance's labels are
// corrupted behind the marker's back, which only a test may do.
func TestSeedAllOrNothing(t *testing.T) {
	g := graph.RandomConnected(64, 150, 5)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	order := l.Tree.DFSOrder()
	l.Labels[order[len(order)-1]].SP.Dist += 2
	r := NewWorklistRunner(l, 1)
	requireCold(t, r)
	if r.seedQuiescence() {
		t.Fatal("the seed certified a node with a corrupted SP label")
	}
	requireCold(t, r)
	if _, _, ok := r.RunUntilAlarm(DetectionBudget(g.N())); !ok {
		t.Fatal("corrupted SP label not detected from the awake start")
	}
}

// TestSeedAtScale: at n=65536 a fresh Mark instance is frozen within 2
// rounds of NewWorklistRunner, and an SP fault is detected within budget.
func TestSeedAtScale(t *testing.T) {
	const n = 65536
	g := graph.RandomConnected(n, 2*n, 1)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := NewWorklistRunner(l, 1)
	built := time.Since(start)
	requireSeeded(t, r)
	frozenWithin2(t, r)
	t.Logf("n=%d: NewWorklistRunner %v, frozen 2 rounds later at %v", n, built, time.Since(start))
	rng := rand.New(rand.NewSource(7))
	if !r.InjectKind(rng.Intn(n), FaultSPDist, rng) {
		t.Fatal("FaultSPDist must always apply")
	}
	budget := DetectionBudget(n)
	k, _, ok := r.RunUntilAlarm(budget)
	if !ok {
		t.Fatalf("SP fault undetected within %d rounds of the seed", budget)
	}
	t.Logf("SP fault detected in %d rounds", k)
}
