package verify

import (
	"math/rand"
	"reflect"
	gort "runtime"
	"testing"
	"weak"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// The label block is immutable and shared by reference: the marker's
// Labeled.Labels entry, both engine buffers and every header copy point at
// one block, and a fault mutates a Clone committed through SetState. These
// tests drive pool-stepped runners through every injection path and check
// that the marker's blocks come out untouched, and that a dropped runner
// releases them.

// poolRunner forces r's synchronous rounds onto the worker pool.
func poolRunner(r *Runner) *Runner {
	r.Eng.Workers = runtime.PoolWorkers()
	return r
}

// faultWave corrupts size distinct random nodes (static kinds through
// InjectKind, one label rewrite through Inject/Engine.Corrupt), steps to
// the first alarm, restores the saved states and steps until calm.
func faultWave(t *testing.T, r *Runner, size int, rng *rand.Rand) {
	t.Helper()
	g := r.Eng.G()
	budget := DetectionBudget(g.N())
	kinds := StaticFaultKinds()
	hit := make([]bool, g.N())
	var victims []int
	var saved []runtime.State
	for len(victims) < size {
		v := rng.Intn(g.N())
		if hit[v] {
			continue
		}
		before := r.Eng.State(v).Clone()
		ok := true
		if len(victims) == 0 {
			r.Inject(v, func(s *VState) { s.L.SP.Dist += 3 })
		} else {
			ok = r.InjectKind(v, kinds[rng.Intn(len(kinds))], rng)
		}
		if ok {
			hit[v] = true
			victims = append(victims, v)
			saved = append(saved, before)
		}
	}
	if _, _, ok := r.RunUntilAlarm(budget); !ok {
		t.Fatalf("faults at %v not detected within %d rounds", victims, budget)
	}
	for j, v := range victims {
		r.Eng.SetState(v, saved[j])
	}
	if _, ok := r.RunUntilQuiet(budget, 64); !ok {
		t.Fatalf("alarms persist %d rounds after repairing %v", budget, victims)
	}
}

// TestSharedLabelsStayPristine: after fault waves on the dense runner, and
// fault waves plus MST-preserving churn on the worklist runner, every
// marker label block equals the one an independent marker run produces.
func TestSharedLabelsStayPristine(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, l *Labeled, rng *rand.Rand)
	}{
		{"dense", func(t *testing.T, l *Labeled, rng *rand.Rand) {
			r := poolRunner(NewRunner(l, Sync, 3))
			for wave := 0; wave < 2; wave++ {
				faultWave(t, r, 6, rng)
			}
		}},
		{"worklist", func(t *testing.T, l *Labeled, rng *rand.Rand) {
			r := poolRunner(newColdWorklistRunner(l, 3))
			faultWave(t, r, 6, rng)
			applied := 0
			for _, kind := range []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy, ChurnCut} {
				if _, ok := r.ApplyChurn(kind, rng); ok {
					applied++
				}
				if err := r.RunQuiet(32); err != nil {
					t.Fatalf("after %v churn: %v", kind, err)
				}
			}
			if applied == 0 {
				t.Fatal("no churn event applied")
			}
			faultWave(t, r, 6, rng)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.RandomConnected(320, 960, 11)
			l, err := Mark(g)
			if err != nil {
				t.Fatal(err)
			}
			pristine, err := Mark(g) // deterministic: an unshared reference copy
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, l, rand.New(rand.NewSource(5)))
			for v := range l.Labels {
				if !reflect.DeepEqual(l.Labels[v], pristine.Labels[v]) {
					t.Fatalf("node %d: marker label block changed\n got %+v\nwant %+v", v, l.Labels[v], pristine.Labels[v])
				}
			}
		})
	}
}

// TestSharedLabelsReleased: once a pool-stepped runner is dropped, nothing
// — in particular no parked pool worker's scratch — keeps the marked
// instance's label array alive.
func TestSharedLabelsReleased(t *testing.T) {
	g := graph.RandomConnected(320, 960, 13)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	probe := weak.Make(&l.Labels[0])
	r := poolRunner(NewRunner(l, Sync, 1))
	r.Eng.RunSyncRounds(8)
	r, l = nil, nil
	gort.GC()
	if probe.Value() != nil {
		t.Fatal("the dropped runner's label array is still reachable")
	}
}

// TestRunnersDropMarkerScaffolding: every runner keeps the instance without
// the marking by-products, so once the caller drops its *Labeled the
// hierarchy and the partitions are unreachable — no runner field and no
// parked pool worker pins them — while the runner lives on and still
// detects a fault within DetectionBudget. A caller that keeps its Labeled
// keeps both.
func TestRunnersDropMarkerScaffolding(t *testing.T) {
	g := graph.RandomConnected(320, 960, 13)
	for _, tc := range []struct {
		name string
		new  func(l *Labeled) *Runner
	}{
		{"NewRunner", func(l *Labeled) *Runner { return NewRunner(l, Sync, 1) }},
		{"NewWorklistRunner", func(l *Labeled) *Runner { return NewWorklistRunner(l, 1) }},
		{"NewFullRecheckRunner", func(l *Labeled) *Runner { return NewFullRecheckRunner(l, Sync, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Mark(g)
			if err != nil {
				t.Fatal(err)
			}
			h, parts := weak.Make(l.H), weak.Make(l.Parts)
			r := poolRunner(tc.new(l))
			r.Eng.RunSyncRounds(8)
			l = nil
			gort.GC()
			if h.Value() != nil || parts.Value() != nil {
				t.Fatalf("the dropped instance's hierarchy (%v) or partitions (%v) are still reachable", h.Value() != nil, parts.Value() != nil)
			}
			if r.Labeled.H != nil || r.Labeled.Parts != nil {
				t.Fatal("the runner's instance holds the marking by-products")
			}
			if !r.InjectKind(7, FaultSPDist, rand.New(rand.NewSource(2))) {
				t.Fatal("FaultSPDist did not apply")
			}
			if _, _, ok := r.RunUntilAlarm(DetectionBudget(g.N())); !ok {
				t.Fatalf("FaultSPDist not detected within %d rounds", DetectionBudget(g.N()))
			}
		})
	}
	t.Run("kept", func(t *testing.T) {
		l, err := Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		h, parts := weak.Make(l.H), weak.Make(l.Parts)
		r := poolRunner(NewRunner(l, Sync, 1))
		r.Eng.RunSyncRounds(8)
		gort.GC()
		if h.Value() == nil || parts.Value() == nil {
			t.Fatal("the caller's instance lost its hierarchy or partitions")
		}
		gort.KeepAlive(l)
		gort.KeepAlive(r)
	})
}
