package selfstab

import (
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/verify"
)

// TestIncrementalCheckPhaseDetection: inside the transformer, the check
// phase rides the verifier's memoized static verdict; a label fault injected
// through InjectCheckFault (an engine-level SetState, which marks the node
// dirty) must be detected — the node leaving the check phase — at exactly
// the same round as under the full-recheck reference, for every trial.
func TestIncrementalCheckPhaseDetection(t *testing.T) {
	g := graph.RandomConnected(64, 160, 13)
	l, err := verify.Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	warm := 120
	for trial := 0; trial < 4; trial++ {
		inc := NewRunner(g, g.N(), verify.Sync, int64(trial))
		full := NewFullRecheckRunner(g, g.N(), verify.Sync, int64(trial))
		for _, r := range []*Runner{inc, full} {
			r.SeedStable(l)
			r.Eng.RunSyncRounds(warm)
			if !r.Eng.AllDone() {
				t.Fatalf("trial %d: seeded configuration did not hold", trial)
			}
		}
		victim := 3 + 7*trial
		inject := func(r *Runner) bool {
			rng := rand.New(rand.NewSource(int64(50 + trial)))
			return r.InjectCheckFault(victim, func(c *verify.VState) bool {
				return verify.ApplyFault(c, verify.FaultStoredPieceW, rng, g.Degree(victim))
			})
		}
		okI, okF := inject(inc), inject(full)
		if okI != okF {
			t.Fatalf("trial %d: injection applied on one path only", trial)
		}
		if !okI {
			continue
		}
		budget := 2 * verify.DetectionBudget(g.N())
		dI, detI := inc.RunUntilDetect(budget)
		dF, detF := full.RunUntilDetect(budget)
		if dI != dF || detI != detF {
			t.Fatalf("trial %d: detection rounds diverged: incremental %d vs full re-check %d",
				trial, dI, dF)
		}
		if !detI {
			t.Fatalf("trial %d: fault never detected", trial)
		}
		// Inside the transformer, too, the memoized label BitSize must keep
		// the compactness measurement bit-identical to a full re-measure.
		if bI, bF := inc.Eng.MaxStateBits(), full.Eng.MaxStateBits(); bI != bF {
			t.Fatalf("trial %d: MaxStateBits diverged: incremental %d vs full re-check %d",
				trial, bI, bF)
		}
	}
}

// TestTransformerQuietCheckPhaseFastPaths: once the transformer's check
// phase is warm and quiet, its embedded verifier must ride both PR 4 fast
// paths — no static recomputes and no deep label copies per round — on the
// serial and the parallel-forced engine alike.
func TestTransformerQuietCheckPhaseFastPaths(t *testing.T) {
	g := graph.RandomConnected(96, 240, 29)
	l, err := verify.Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	ser := NewRunner(g, g.N(), verify.Sync, 2)
	ser.Eng.Parallel = false
	par := NewRunner(g, g.N(), verify.Sync, 2)
	par.Eng.Workers = runtime.PoolWorkers()
	for name, r := range map[string]*Runner{"serial": ser, "parallel": par} {
		r.SeedStable(l)
		r.Eng.RunSyncRounds(40)
		if !r.Eng.AllDone() {
			t.Fatalf("%s: seeded configuration did not hold", name)
		}
		copies, recomputes := r.M.Verifier().LabelCopies(), r.M.Verifier().StaticRecomputes()
		r.Eng.RunSyncRounds(10)
		if got := r.M.Verifier().LabelCopies() - copies; got != 0 {
			t.Errorf("%s: %d label copies over 10 quiet check rounds, want 0", name, got)
		}
		if got := r.M.Verifier().StaticRecomputes() - recomputes; got != 0 {
			t.Errorf("%s: %d static recomputes over 10 quiet check rounds, want 0", name, got)
		}
	}
}

// TestIncrementalSurvivesEpochChurn: a full stabilization run from
// arbitrary states — epochs flooding, phases cycling, labels installed and
// withdrawn — converges identically with and without memoization. This
// exercises every transformer-side MarkChanged site (epoch adoption, phase
// transitions, the alarm reset).
func TestIncrementalSurvivesEpochChurn(t *testing.T) {
	g := graph.RandomConnected(20, 48, 17)
	inc := NewRunner(g, g.N(), verify.Sync, 5)
	full := NewFullRecheckRunner(g, g.N(), verify.Sync, 5)
	inc.Scramble(rand.New(rand.NewSource(77)))
	full.Scramble(rand.New(rand.NewSource(77)))
	budget := 2 * inc.StabilizationBudget()
	rI, okI := inc.RunUntilStable(budget)
	rF, okF := full.RunUntilStable(budget)
	if okI != okF || rI != rF {
		t.Fatalf("stabilization diverged: incremental (%d, %v) vs full re-check (%d, %v)",
			rI, okI, rF, okF)
	}
	if !okI {
		t.Fatal("did not stabilize within budget")
	}
	if !inc.OutputIsMST() || !full.OutputIsMST() {
		t.Fatal("stabilized output is not the MST")
	}
}
