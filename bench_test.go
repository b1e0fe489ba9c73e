// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4).
// Custom metrics report the paper's quantities — rounds (time complexity)
// and bits/node (memory) — alongside wall-clock cost.
package ssmst

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmst/internal/ghs"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/labeling"
	"ssmst/internal/lowerbound"
	"ssmst/internal/partition"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/train"
	"ssmst/internal/verify"
)

// BenchmarkEngineScaling measures the double-buffered stepping engine at
// growing n, serial vs pooled-parallel, with every Machine.Step recycling
// its node's state — on the toy FloodMin protocol, on the §7 verifier
// (incremental, and with static-verdict memoization disabled:
// "verify-fullrecheck"), and on the §10 transformer seeded into its check
// phase. Acceptance: the steady-state round loop reports 0 allocs/op on all
// three machines, the incremental verifier beats full re-check, and on ≥4
// cores parallel is ≥2× faster than serial (see runtime.TestParallelSpeedup
// for the asserted version; parallel/serial and fresh/recycled bit-equality
// are asserted by runtime.TestParallelDeterminism,
// verify.TestInPlaceMatchesClone and selfstab.TestInPlaceMatchesClone;
// incremental/full-recheck equality by
// verify.TestIncrementalMatchesFullRecheck).
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		g := graph.RandomConnected(n, 3*n, 1)
		var labeled *verify.Labeled
		lab := func(b *testing.B) *verify.Labeled {
			if labeled == nil {
				l, err := verify.Mark(g)
				if err != nil {
					b.Fatal(err)
				}
				labeled = l
			}
			return labeled
		}
		verifier := func(b *testing.B, fullRecheck bool) *runtime.Engine {
			return runtime.New(g, &verify.Machine{Mode: verify.Sync, Labeled: lab(b), FullRecheck: fullRecheck}, 1)
		}
		transformer := func(b *testing.B) *runtime.Engine {
			e := runtime.New(g, selfstab.NewMachine(g, g.N(), verify.Sync), 1)
			selfstab.SeedChecked(e, lab(b))
			return e
		}
		for _, bc := range []struct {
			name     string
			parallel bool
			build    func(b *testing.B) *runtime.Engine
		}{
			{"serial", false, func(*testing.B) *runtime.Engine { return runtime.New(g, runtime.FloodMin{}, 1) }},
			{"parallel", true, func(*testing.B) *runtime.Engine { return runtime.New(g, runtime.FloodMin{}, 1) }},
			{"verify", false, func(b *testing.B) *runtime.Engine { return verifier(b, false) }},
			{"verify-parallel", true, func(b *testing.B) *runtime.Engine { return verifier(b, false) }},
			{"verify-fullrecheck", false, func(b *testing.B) *runtime.Engine { return verifier(b, true) }},
			{"selfstab", false, transformer},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, bc.name), func(b *testing.B) {
				e := bc.build(b)
				e.Parallel = bc.parallel
				e.ForcePool = bc.parallel // measure the pool even on 1 core
				// Fill both buffers and let the per-node memo caches settle
				// (the claimed-level memo persists on the first recycled
				// round), so 1x smoke runs measure the steady state.
				e.RunSyncRounds(8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.StepSync()
				}
			})
		}
	}
}

// BenchmarkTable1SelfStabMST (E1): the self-stabilizing MST — this paper's
// O(log n)-bits/O(n)-time point of Table 1.
func BenchmarkTable1SelfStabMST(b *testing.B) {
	g := graph.RandomConnected(32, 80, 1)
	var rounds, bits int
	for i := 0; i < b.N; i++ {
		r := selfstab.NewRunner(g, g.N(), verify.Sync, int64(i))
		n, ok := r.RunUntilStable(r.StabilizationBudget())
		if !ok {
			b.Fatal("did not stabilize")
		}
		rounds, bits = n, r.Eng.MaxStateBits()
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(bits), "bits/node")
}

// BenchmarkTable2Example (E2): regenerating the paper's Table 2 strings.
func BenchmarkTable2Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := hierarchy.ExampleHierarchy()
		if err != nil {
			b.Fatal(err)
		}
		_ = hierarchy.MarkStrings(h)
	}
}

// BenchmarkDetectionTimeSync (E3): synchronous detection after one fault
// (paper: O(log² n)).
func BenchmarkDetectionTimeSync(b *testing.B) {
	g := graph.RandomConnected(48, 120, 2)
	rng := rand.New(rand.NewSource(7))
	var det int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(g)
		if err != nil {
			b.Fatal(err)
		}
		r := verify.NewRunner(l, verify.Sync, int64(i))
		budget := verify.DetectionBudget(g.N())
		r.Eng.RunSyncRounds(budget / 4)
		if !r.InjectKind(rng.Intn(g.N()), verify.FaultStoredPieceW, rng) {
			continue
		}
		rounds, _, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			b.Fatal("not detected")
		}
		det = rounds
	}
	b.ReportMetric(float64(det), "rounds")
}

// BenchmarkDetectionTimeAsync (E4): asynchronous detection (paper:
// O(Δ log³ n)).
func BenchmarkDetectionTimeAsync(b *testing.B) {
	g := graph.RandomConnected(24, 60, 3)
	rng := rand.New(rand.NewSource(9))
	var det int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(g)
		if err != nil {
			b.Fatal(err)
		}
		r := verify.NewRunner(l, verify.Async, int64(i))
		r.Eng.Jitter = 0.3
		budget := verify.DetectionBudget(g.N())
		for k := 0; k < budget/4; k++ {
			r.Step()
		}
		if !r.InjectKind(rng.Intn(g.N()), verify.FaultRootsEntry, rng) {
			continue
		}
		rounds, _, ok := r.RunUntilAlarm(4 * budget)
		if !ok {
			b.Fatal("not detected")
		}
		det = rounds
	}
	b.ReportMetric(float64(det), "timeunits")
}

// BenchmarkDetectionDistance (E5): fault-to-alarm distance (paper:
// O(f log n)).
func BenchmarkDetectionDistance(b *testing.B) {
	g := graph.Grid(6, 6, 4)
	rng := rand.New(rand.NewSource(11))
	var dist int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(g)
		if err != nil {
			b.Fatal(err)
		}
		r := verify.NewRunner(l, verify.Sync, int64(i))
		budget := verify.DetectionBudget(g.N())
		r.Eng.RunSyncRounds(budget / 4)
		node := rng.Intn(g.N())
		if !r.InjectKind(node, verify.FaultStoredPieceW, rng) {
			continue
		}
		_, alarms, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			b.Fatal("not detected")
		}
		dist = verify.DetectionDistance(g, []int{node}, alarms)[0]
	}
	b.ReportMetric(float64(dist), "hops")
}

// BenchmarkConstructionTime (E6): SYNC_MST rounds (paper: O(n)).
func BenchmarkConstructionTime(b *testing.B) {
	g := graph.RandomConnected(128, 320, 5)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := syncmst.Simulate(g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkConstructionGHS (E6 baseline): fragment-level GHS rounds
// (paper: O(n log n)).
func BenchmarkConstructionGHS(b *testing.B) {
	g := graph.RandomConnected(128, 320, 5)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := ghs.Run(g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkConstructionMemory (E6): register-level SYNC_MST memory
// (paper: O(log n) bits).
func BenchmarkConstructionMemory(b *testing.B) {
	g := graph.RandomConnected(64, 160, 6)
	var bitsMax int
	for i := 0; i < b.N; i++ {
		_, eng, err := syncmst.RunRegister(g, int64(i), 400*g.N()+500)
		if err != nil {
			b.Fatal(err)
		}
		bitsMax = eng.MaxStateBits()
	}
	b.ReportMetric(float64(bitsMax), "bits/node")
}

// BenchmarkMarkerTime (E7): full marker construction (paper: O(n)).
func BenchmarkMarkerTime(b *testing.B) {
	g := graph.RandomConnected(128, 320, 7)
	var rounds int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(g)
		if err != nil {
			b.Fatal(err)
		}
		rounds = l.ConstructionTime
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkLabelMemory (E7): this scheme's labels (O(log n)) vs the KK
// 1-time scheme (Θ(log² n)).
func BenchmarkLabelMemory(b *testing.B) {
	g := graph.RandomConnected(256, 640, 8)
	var ours, kk int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(g)
		if err != nil {
			b.Fatal(err)
		}
		ours = l.MaxLabelBits()
		res, err := syncmst.Simulate(g)
		if err != nil {
			b.Fatal(err)
		}
		kk = 0
		for _, lab := range labeling.MarkKK(res.Hierarchy) {
			if bb := lab.BitSize(); bb > kk {
				kk = bb
			}
		}
	}
	b.ReportMetric(float64(ours), "bits/node")
	b.ReportMetric(float64(kk), "kk-bits/node")
}

// BenchmarkLowerBoundTradeoff (E8): detection on §9-stretched instances.
func BenchmarkLowerBoundTradeoff(b *testing.B) {
	g := graph.RandomConnected(8, 12, 9)
	st, err := lowerbound.Stretch(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	var det int
	for i := 0; i < b.N; i++ {
		l, err := verify.Mark(st.G)
		if err != nil {
			b.Fatal(err)
		}
		r := verify.NewRunner(l, verify.Sync, int64(i))
		budget := verify.DetectionBudget(st.G.N())
		r.Eng.RunSyncRounds(budget / 4)
		r.Inject(st.PathNodes[0][2], func(vs *verify.VState) { vs.L.SP.Dist += 2 })
		rounds, _, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			b.Fatal("not detected")
		}
		det = rounds
	}
	b.ReportMetric(float64(det), "rounds")
}

// BenchmarkPartitionShape (E9): partition construction (Lemmas 6.4/6.5).
func BenchmarkPartitionShape(b *testing.B) {
	res, err := syncmst.Simulate(graph.RandomConnected(256, 640, 10))
	if err != nil {
		b.Fatal(err)
	}
	var parts int
	for i := 0; i < b.N; i++ {
		p, err := partition.Compute(res.Hierarchy)
		if err != nil {
			b.Fatal(err)
		}
		parts = len(p.Parts)
	}
	b.ReportMetric(float64(parts), "parts")
}

// BenchmarkTrainCycle (E11): one full train delivery cycle (Theorem 7.1:
// O(log n) synchronous).
func BenchmarkTrainCycle(b *testing.B) {
	g := graph.RandomConnected(96, 220, 11)
	res, err := syncmst.Simulate(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.Compute(res.Hierarchy)
	if err != nil {
		b.Fatal(err)
	}
	m := &train.TestMachine{
		Tree:    res.Tree,
		Labels:  train.Mark(p),
		Strings: hierarchy.MarkStrings(res.Hierarchy),
		N:       g.N(),
	}
	var gap int
	for i := 0; i < b.N; i++ {
		eng := runtime.New(g, m, int64(i))
		eng.RunSyncRounds(400)
		// Measure the next wrap-to-wrap gap at node 0's top train.
		prev, lastWrap, measured := -1, -1, 0
		for r := 0; r < 3000 && measured == 0; r++ {
			eng.StepSync()
			st := eng.State(0).(*train.TMState)
			if st.TopS.Down.Valid {
				if prev >= 0 && st.TopS.Down.Pos < prev {
					if lastWrap >= 0 {
						measured = r - lastWrap
					}
					lastWrap = r
				}
				prev = st.TopS.Down.Pos
			}
		}
		gap = measured
	}
	b.ReportMetric(float64(gap), "rounds/cycle")
}

// BenchmarkAskCycle (E10): one full Ask sweep over all levels.
func BenchmarkAskCycle(b *testing.B) {
	g := graph.RandomConnected(48, 120, 12)
	l, err := verify.Mark(g)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := verify.NewRunner(l, verify.Sync, int64(i))
		if err := r.RunQuiet(verify.DetectionBudget(g.N()) / 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfStabilization (E12): stabilization from arbitrary states.
func BenchmarkSelfStabilization(b *testing.B) {
	g := graph.RandomConnected(24, 60, 13)
	var rounds int
	for i := 0; i < b.N; i++ {
		r := selfstab.NewRunner(g, g.N(), verify.Sync, int64(i))
		r.Scramble(rand.New(rand.NewSource(int64(i))))
		n, ok := r.RunUntilStable(2 * r.StabilizationBudget())
		if !ok {
			b.Fatal("did not stabilize")
		}
		rounds = n
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkFaultRecovery (E13): detection + rebuild after a label fault.
func BenchmarkFaultRecovery(b *testing.B) {
	g := graph.RandomConnected(24, 60, 14)
	rng := rand.New(rand.NewSource(15))
	var rounds int
	for i := 0; i < b.N; i++ {
		r := selfstab.NewRunner(g, g.N(), verify.Sync, int64(i))
		if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
			b.Fatal("initial stabilization failed")
		}
		if !r.InjectLabelFault(rng.Intn(g.N()), rng) {
			continue
		}
		n, ok := r.RunUntilStable(r.StabilizationBudget())
		if !ok {
			b.Fatal("did not recover")
		}
		rounds = n
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkVerifierRound: cost of one verifier round over the whole
// network (the unit everything else multiplies).
func BenchmarkVerifierRound(b *testing.B) {
	g := graph.RandomConnected(128, 320, 16)
	l, err := verify.Mark(g)
	if err != nil {
		b.Fatal(err)
	}
	r := verify.NewRunner(l, verify.Sync, 1)
	r.Eng.RunSyncRounds(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Eng.StepSync()
	}
}
