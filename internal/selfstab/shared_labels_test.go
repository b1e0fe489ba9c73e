package selfstab

import (
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/verify"
)

// TestSharedLabelsStayPristine: SeedChecked installs a marked instance's
// label blocks by reference. A regional outage corrupts clones of the
// victims' verifier states (InjectCheckFault) and the rebuild installs the
// oracle's fresh labels, so after re-stabilizing on the worker pool every
// seeded block must still equal an independent marker run's.
func TestSharedLabelsStayPristine(t *testing.T) {
	g := graph.RandomConnected(160, 480, 7)
	l, err := verify.Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := verify.Mark(g) // deterministic: an unshared reference copy
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(g, g.N(), verify.Sync, 3)
	r.Eng.Workers = runtime.PoolWorkers()
	r.SeedStable(l)
	r.Eng.RunSyncRounds(16)
	if !r.Stabilized() {
		t.Fatal("seeded transformer is not stable")
	}
	if _, victims := r.ApplyRegionalOutage(2, 9); len(victims) == 0 {
		t.Fatal("the outage corrupted nothing")
	}
	if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
		t.Fatal("did not re-stabilize after the outage")
	}
	for v := range l.Labels {
		if !reflect.DeepEqual(l.Labels[v], pristine.Labels[v]) {
			t.Fatalf("node %d: seeded label block changed\n got %+v\nwant %+v", v, l.Labels[v], pristine.Labels[v])
		}
	}
}

// TestOracleDropsMarkerScaffolding: the label oracle memoizes each epoch's
// marked instance without the marking by-products, so a stabilized
// transformer holds no hierarchy or partitions.
func TestOracleDropsMarkerScaffolding(t *testing.T) {
	g := graph.RandomConnected(32, 80, 5)
	r := NewRunner(g, g.N(), verify.Sync, 3)
	if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
		t.Fatal("did not stabilize")
	}
	marked := 0
	for epoch, l := range r.M.marked {
		if l == nil {
			continue
		}
		marked++
		if l.H != nil || l.Parts != nil {
			t.Errorf("epoch %d: the memoized instance holds the marking by-products", epoch)
		}
	}
	if marked == 0 {
		t.Fatal("the oracle memoized no marked instance")
	}
}
