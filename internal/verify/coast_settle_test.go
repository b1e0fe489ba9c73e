package verify

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/raceflag"
)

// settleBudget is a generous bound on the rounds a quiet legal network
// needs to freeze completely: one horizon for RestOK to fire, one cycle
// budget for the trains to park, and slack for certification to ripple.
func settleBudget(r *Runner) int {
	return DetectionBudget(r.Labeled.G.N())
}

// TestWorklistQuietReachesCoast is the regime's keystone liveness fact: a
// quiet legal network under coast mode freezes completely — every node
// certifies Coasting, the worklist frontier drains to zero, and from then
// on StepsTaken stops advancing (quiet rounds cost 0 machine steps).
func TestWorklistQuietReachesCoast(t *testing.T) {
	for _, n := range []int{24, 96} {
		g := graph.RandomConnected(n, 2*n, int64(100+n))
		l, err := Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		r := newColdWorklistRunner(l, 7)
		budget := settleBudget(r)
		settled := -1
		for i := 0; i < budget; i++ {
			r.Step()
			if _, bad := r.Eng.AnyAlarm(); bad {
				t.Fatalf("n=%d: false alarm during settle at round %d", n, i+1)
			}
			if r.Eng.LastActive() == 0 {
				settled = i + 1
				break
			}
		}
		if settled < 0 {
			coasting := 0
			for i := 0; i < n; i++ {
				if r.Eng.State(i).(*VState).coasting {
					coasting++
				}
			}
			t.Fatalf("n=%d: frontier never drained within %d rounds (last active=%d, coasting=%d/%d)",
				n, budget, r.Eng.LastActive(), coasting, n)
		}
		for i := 0; i < n; i++ {
			if !r.Eng.State(i).(*VState).coasting {
				t.Fatalf("n=%d: node %d awake after frontier drained", n, i)
			}
		}
		// Quiet rounds are free: no machine steps, no frontier.
		before := r.Eng.StepsTaken()
		r.Eng.RunSyncRounds(50)
		if got := r.Eng.StepsTaken() - before; got != 0 {
			t.Fatalf("n=%d: %d machine steps over 50 quiet coasted rounds, want 0", n, got)
		}
		if _, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("n=%d: alarm while coasting", n)
		}
		t.Logf("n=%d settled (frontier empty) after %d rounds", n, settled)
	}
}

// TestCoastMeltRedetects melts a frozen network with a fault and checks the
// wake wave reaches detection: coast must not cost soundness, only the
// one-hop-per-round wake latency.
func TestCoastMeltRedetects(t *testing.T) {
	g := graph.RandomConnected(64, 128, 11)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newColdWorklistRunner(l, 3)
	budget := settleBudget(r)
	frozen := false
	for i := 0; i < budget; i++ {
		r.Step()
		if r.Eng.LastActive() == 0 {
			frozen = true
			break
		}
	}
	if !frozen {
		t.Fatalf("network never froze within %d rounds", budget)
	}
	// A label fault at a frozen node must melt and alarm.
	r.Inject(17, func(s *VState) { s.L.SP.Dist += 3 })
	rounds, _, detected := r.RunUntilAlarm(2 * budget)
	if !detected {
		t.Fatalf("fault at frozen node undetected within %d rounds", 2*budget)
	}
	t.Logf("melt detection after %d rounds", rounds)
}

// TestCoastQuietRoundZeroAlloc is the quiet-coast hot-path gate: once a
// dense coast network is fully certified, a quiet round must allocate
// nothing and copy zero labels — any per-round allocation or label copy on
// that path would be a regression the benchmarks only show as noise.
func TestCoastQuietRoundZeroAlloc(t *testing.T) {
	g := graph.RandomConnected(64, 150, 35)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newCoastRunner(l, 9)
	r.Eng.Parallel = false
	budget := DetectionBudget(g.N())
	settled := false
	for i := 0; i < budget && !settled; i++ {
		r.Step()
		settled = true
		for v := 0; v < g.N() && settled; v++ {
			settled = r.Eng.State(v).(*VState).coasting
		}
	}
	if !settled {
		t.Fatalf("network never fully certified within %d rounds", budget)
	}

	copies := r.Machine.LabelCopies()
	for i := 0; i < 50; i++ {
		r.Step()
	}
	if got := r.Machine.LabelCopies() - copies; got != 0 {
		t.Fatalf("%d label copies over 50 quiet coast rounds, want 0", got)
	}

	if raceflag.Enabled {
		t.Log("race instrumentation allocates; skipping the alloc gate")
	} else if avg := testing.AllocsPerRun(100, func() { r.Step() }); avg != 0 {
		t.Fatalf("quiet coast round allocates %.1f times, want 0", avg)
	}
}
