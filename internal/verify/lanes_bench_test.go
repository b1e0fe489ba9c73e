package verify

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// BenchmarkQuietRoundResidency is the lanes-vs-struct A/B on one build: the
// settled dense coast quiet round at n=16384, serial, under both residencies.
// Run with -count to interleave samples; the pair isolates the lane layout's
// effect from box noise and build drift, which a comparison across builds
// cannot.
func BenchmarkQuietRoundResidency(b *testing.B) {
	const n = 16384
	g := graph.RandomConnected(n, 3*n, 1)
	l, err := Mark(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range []struct {
		name    string
		noLanes bool
	}{{"lanes", false}, {"struct", true}} {
		b.Run(res.name, func(b *testing.B) {
			m := &Machine{Mode: Sync, Labeled: l, Coast: true, NoLanes: res.noLanes}
			eng := runtime.New(g, m, 1)
			eng.Parallel = false
			r := &Runner{Labeled: l, Machine: m, Eng: eng}
			budget := DetectionBudget(n)
			settled := false
			for i := 0; i < budget && !settled; i++ {
				r.Step()
				settled = true
				for v := 0; v < n && settled; v++ {
					settled = r.Eng.State(v).(*VState).Hot().Coasting
				}
			}
			if !settled {
				b.Fatalf("network never certified within %d rounds", budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Eng.RunSyncRounds(1)
			}
		})
	}
}
