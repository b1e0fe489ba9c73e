package selfstab

import (
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

func TestCleanStartStabilizesToMST(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(12, 1),
		graph.RandomConnected(24, 60, 2),
		graph.Grid(4, 5, 3),
	} {
		r := NewRunner(g, g.N(), verify.Sync, 7)
		rounds, ok := r.RunUntilStable(r.StabilizationBudget())
		if !ok {
			t.Fatalf("n=%d: did not stabilize within %d rounds", g.N(), r.StabilizationBudget())
		}
		if rounds > 70*g.N()+200 {
			t.Errorf("n=%d: stabilization took %d rounds, not O(n)-like", g.N(), rounds)
		}
		// Once stable, it stays stable and silent.
		for i := 0; i < 500; i++ {
			r.Step()
			if _, bad := r.Eng.AnyAlarm(); bad {
				t.Fatalf("n=%d: alarm after stabilization", g.N())
			}
		}
		if !r.OutputIsMST() {
			t.Fatalf("n=%d: output degraded", g.N())
		}
	}
}

func TestStabilizesFromArbitraryStates(t *testing.T) {
	g := graph.RandomConnected(20, 50, 5)
	for seed := int64(0); seed < 5; seed++ {
		r := NewRunner(g, g.N(), verify.Sync, seed)
		r.Scramble(rand.New(rand.NewSource(seed * 31)))
		if _, ok := r.RunUntilStable(2 * r.StabilizationBudget()); !ok {
			t.Fatalf("seed %d: did not stabilize from arbitrary states", seed)
		}
		if !r.OutputIsMST() {
			t.Fatalf("seed %d: stabilized to a non-MST", seed)
		}
	}
}

func TestFaultTriggersRebuildAndRecovery(t *testing.T) {
	g := graph.RandomConnected(16, 40, 9)
	r := NewRunner(g, g.N(), verify.Sync, 3)
	if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
		t.Fatal("initial stabilization failed")
	}
	epoch0 := r.Eng.State(0).(*SState).Epoch
	rng := rand.New(rand.NewSource(17))
	if !r.InjectLabelFault(4, rng) {
		t.Fatal("could not inject fault")
	}
	// Detection, reset, rebuild, re-stabilize.
	rounds, ok := r.RunUntilStable(r.StabilizationBudget())
	if !ok {
		t.Fatal("did not recover from fault")
	}
	if e := r.Eng.State(0).(*SState).Epoch; e <= epoch0 {
		t.Fatalf("no epoch bump after fault (epoch %d)", e)
	}
	t.Logf("fault recovery in %d rounds", rounds)
}

func TestAsyncStabilizes(t *testing.T) {
	g := graph.RandomConnected(14, 30, 11)
	r := NewRunner(g, g.N(), verify.Async, 5)
	r.Eng.Jitter = 0.3
	if _, ok := r.RunUntilStable(3 * r.StabilizationBudget()); !ok {
		t.Fatal("async run did not stabilize")
	}
	if !r.OutputIsMST() {
		t.Fatal("async output not the MST")
	}
}

// TestMemoryBoundedLogarithmic is the O(log n) bits gate of Theorem 10.3:
// over a clean start to a stable MST output, the widest state any node
// held, divided by ⌈log₂ n⌉, must not grow with n.
func TestMemoryBoundedLogarithmic(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{12, 48, 256, 1024} {
		g := graph.RandomConnected(n, 2*n, int64(n))
		r := NewRunner(g, n, verify.Sync, 1)
		if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
			t.Fatalf("n=%d: not stable within %d rounds", n, r.StabilizationBudget())
		}
		b := r.Eng.MaxStateBits()
		per := float64(b) / float64(mbits.Len(uint(n-1)))
		t.Logf("n=%d: %d bits, %.1f per ⌈log₂ n⌉", n, b, per)
		if per > prev {
			t.Errorf("n=%d: %.1f bits per ⌈log₂ n⌉, more than %.1f at the smaller n", n, per, prev)
		}
		prev = per
	}
}

func TestPhaseString(t *testing.T) {
	want := []string{"resync", "build", "label", "check"}
	for p := PhaseResync; p <= PhaseCheck; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q", p, p.String())
		}
	}
	// An adversarial state may carry any phase byte: String names it
	// instead of indexing out of range.
	if got := Phase(7).String(); got != "Phase(7)" {
		t.Errorf("out-of-range Phase(7).String() = %q, want %q", got, "Phase(7)")
	}
}

// TestLabelPhaseChargeCoversMarker is the theorem gate for the label phase:
// the transformer charges labelDur pulses for the marker's multi-wave label
// assignment (Corollary 6.11, O(n)), so the marker's simulated time past
// its SYNC_MST run must fit in that charge on every family.
func TestLabelPhaseChargeCoversMarker(t *testing.T) {
	worst, worstTag := 0.0, ""
	for _, fam := range graph.Families() {
		for _, n := range []int{256, 1024, 4096} {
			for _, seed := range []int64{1, 2} {
				tag := fmt.Sprintf("%s n=%d seed=%d", fam, n, seed)
				g, err := graph.ByFamily(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				l, err := verify.Mark(g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := syncmst.Simulate(g)
				if err != nil {
					t.Fatal(err)
				}
				used, charge := l.ConstructionTime-res.Rounds, NewMachine(g, n, verify.Sync).labelDur()
				if used > charge {
					t.Fatalf("%s: the marker takes %d rounds past SYNC_MST, over the label phase's %d", tag, used, charge)
				}
				if f := float64(used) / float64(charge); f > worst {
					worst, worstTag = f, fmt.Sprintf("%s (%d of %d)", tag, used, charge)
				}
			}
		}
	}
	t.Logf("highest share of the label-phase charge: %.0f%% at %s", 100*worst, worstTag)
}

// TestWiderPulse: the width wake lands on the first pulse whose encoding
// is wider, since SState.BitSize counts the pulse with bits.ForInt.
func TestWiderPulse(t *testing.T) {
	for p := 0; p < 1<<14; p++ {
		q := p + 1
		for bits.ForInt(int64(q)) == bits.ForInt(int64(p)) {
			q++
		}
		if got := widerPulse(p); got != q {
			t.Fatalf("widerPulse(%d) = %d, want %d", p, got, q)
		}
	}
}

// TestSStateFootprint: two transformer states per node sit in the engine's
// buffers; the coast memo must not push the header out of its 64-B size
// class.
func TestSStateFootprint(t *testing.T) {
	if size := unsafe.Sizeof(SState{}); size > 64 {
		t.Fatalf("SState is %d B, over the 64-B size class", size)
	}
}
