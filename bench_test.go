// The engine's round-cost benchmark. The paper's tables are experiments
// (cmd/experiments); the end-to-end scenario benchmark is bench/.
package ssmst

import (
	"fmt"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
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
				e.Workers = runtime.PoolWorkers() // parallel variants fan out even on 1 core
				// Fill both buffers and let the per-node memo caches settle,
				// so 1x smoke runs measure the steady state.
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
