package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// stripEpoch returns a deep copy of a VState with the one memo field the
// two configurations legitimately disagree on zeroed: FullRecheck restamps
// StaticEpoch every round while the incremental path stamps it only on a
// miss. Clone itself drops the simulator-side caches (label BitSize,
// StaticValid, the coast certificate — see VState.InvalidateMemo), so what
// remains compared is every protocol field, the alarm outputs, and the
// memoized verdict content (StaticAlarm/StaticCode/StaticWindow) — exactly
// the property "the memoized static verdict equals a from-scratch re-check,
// every round".
func stripEpoch(s runtime.State) *VState {
	c := s.Clone().(*VState)
	c.staticEpoch = 0
	return c
}

// TestIncrementalMatchesFullRecheck runs the incremental verifier (serial
// and parallel-forced) against the full-recheck reference through a quiet
// phase, the whole fault menu injected mid-run (forcing invalidations), and
// the alarmed aftermath, comparing every node every round.
func TestIncrementalMatchesFullRecheck(t *testing.T) {
	g := graph.RandomConnected(96, 240, 11)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewRunner(l, Sync, 3)
	inc.Eng.Parallel = false
	par := NewRunner(l, Sync, 3)
	par.Eng.Workers = runtime.PoolWorkers()
	full := NewFullRecheckRunner(l, Sync, 3)
	full.Eng.Parallel = false
	runners := []*Runner{inc, par, full}

	compare := func(r int) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			want := stripEpoch(full.Eng.State(v))
			if got := stripEpoch(inc.Eng.State(v)); !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d node %d: incremental state diverged from full re-check\n got %+v\nwant %+v", r, v, got, want)
			}
			if got := stripEpoch(par.Eng.State(v)); !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d node %d: parallel incremental state diverged from full re-check", r, v)
			}
			// The memoized label BitSize must read exactly what a cold
			// re-measure reads: stripEpoch's Clone dropped the memo, so its
			// BitSize recomputes the label term from scratch.
			if got, fresh := inc.Eng.State(v).BitSize(), want.BitSize(); got != fresh {
				t.Fatalf("round %d node %d: memoized BitSize %d, cold re-measure %d", r, v, got, fresh)
			}
		}
		if ib, pb, fb := inc.Eng.MaxStateBits(), par.Eng.MaxStateBits(), full.Eng.MaxStateBits(); ib != fb || pb != fb {
			t.Fatalf("round %d: MaxStateBits diverged: incremental %d parallel %d full %d", r, ib, pb, fb)
		}
	}

	round := 0
	step := func(k int) {
		for i := 0; i < k; i++ {
			for _, r := range runners {
				r.Step()
			}
			round++
			compare(round)
		}
	}

	step(30) // quiet phase: memos settle and must replay exactly

	// A quiet network recomputes the static layer once per node total, not
	// once per node per round.
	if got := inc.Machine.StaticRecomputes(); got != int64(g.N()) {
		t.Fatalf("quiet run: %d static recomputes, want %d (one per node)", got, g.N())
	}
	// ... and performs no deep label copies: steps share the immutable
	// label block by reference, on every path — the full-recheck reference
	// included.
	incCopies, parCopies, fullCopies := inc.Machine.LabelCopies(), par.Machine.LabelCopies(), full.Machine.LabelCopies()
	step(5)
	if got := inc.Machine.LabelCopies(); got != incCopies {
		t.Fatalf("quiet rounds performed %d label copies on the incremental path, want 0", got-incCopies)
	}
	if got := par.Machine.LabelCopies(); got != parCopies {
		t.Fatalf("quiet rounds performed %d label copies on the parallel path, want 0", got-parCopies)
	}
	if got := full.Machine.LabelCopies() - fullCopies; got != 0 {
		t.Fatalf("full re-check performed %d label copies over 5 rounds, want 0", got)
	}

	// Inject every fault kind in sequence at fresh victims (identically on
	// all three runners), stepping in between: each injection must
	// invalidate the relevant memos and keep the paths in lockstep through
	// detection, recovery of transient faults, and steady alarms.
	rng := rand.New(rand.NewSource(23))
	for kind := 0; kind < int(numFaultKinds); kind++ {
		victim := rng.Intn(g.N())
		for _, r := range runners {
			// One shared rng would desynchronize the three injections; each
			// runner gets an identically seeded generator instead.
			kindRng := rand.New(rand.NewSource(int64(100*kind + victim)))
			r.InjectKind(victim, FaultKind(kind), kindRng)
		}
		step(25)
	}

	// The fault storm must have produced alarms somewhere along the way.
	if _, bad := full.Eng.AnyAlarm(); !bad {
		alarmed := false
		for v := 0; v < g.N(); v++ {
			if full.Eng.State(v).(*VState).AlarmFlag {
				alarmed = true
			}
		}
		if !alarmed {
			t.Log("note: no alarm raised at the end (faults may have washed out); lockstep still verified")
		}
	}
}

// TestIncrementalDetectionRoundsMatch pins the acceptance criterion
// directly: the detection round of the E3 fault (a stored piece's ω̂
// raised) is bit-identical between the incremental and the full-recheck
// verifier.
func TestIncrementalDetectionRoundsMatch(t *testing.T) {
	g := graph.RandomConnected(128, 320, 7)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	budget := DetectionBudget(g.N())
	for trial := 0; trial < 3; trial++ {
		inc := NewRunner(l, Sync, int64(trial))
		full := NewFullRecheckRunner(l, Sync, int64(trial))
		inc.Eng.RunSyncRounds(budget / 4)
		full.Eng.RunSyncRounds(budget / 4)
		rng1 := rand.New(rand.NewSource(int64(41 + trial)))
		rng2 := rand.New(rand.NewSource(int64(41 + trial)))
		victim := rng1.Intn(g.N())
		rng2.Intn(g.N())
		okI := inc.InjectKind(victim, FaultStoredPieceW, rng1)
		okF := full.InjectKind(victim, FaultStoredPieceW, rng2)
		if okI != okF {
			t.Fatalf("trial %d: injection applied on one path only", trial)
		}
		if !okI {
			continue
		}
		rI, alarmsI, detI := inc.RunUntilAlarm(2 * budget)
		rF, alarmsF, detF := full.RunUntilAlarm(2 * budget)
		if detI != detF || rI != rF {
			t.Fatalf("trial %d: detection diverged: incremental (%d, %v) vs full (%d, %v)",
				trial, rI, detI, rF, detF)
		}
		if !reflect.DeepEqual(alarmsI, alarmsF) {
			t.Fatalf("trial %d: alarming nodes diverged: %v vs %v", trial, alarmsI, alarmsF)
		}
	}
}

// TestBitSizeMemoFaultParity is the regression lock for the memoized label
// BitSize: a fault that shrinks a node's labels (fewer stored pieces, a
// shorter string block) — or grows them — must never leave the incremental
// engine reading a stale cached value. Every state-injection path funnels
// through Engine.SetState/Corrupt (which invalidate via
// runtime.MemoInvalidator) or verify.ApplyFault (which invalidates
// directly); this test drives both label-shrinking and label-growing
// mutations plus the whole fault menu, asserting per-node BitSize and
// engine MaxStateBits parity against the full-recheck reference every
// round.
func TestBitSizeMemoFaultParity(t *testing.T) {
	g := graph.RandomConnected(64, 160, 19)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewRunner(l, Sync, 7)
	inc.Eng.Parallel = false
	full := NewFullRecheckRunner(l, Sync, 7)
	full.Eng.Parallel = false

	check := func(stage string) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			is, fs := inc.Eng.State(v).(*VState), full.Eng.State(v).(*VState)
			cold := is.Clone().(*VState).BitSize() // Clone drops the memo: a from-scratch re-measure
			if got := is.BitSize(); got != cold {
				t.Fatalf("%s node %d: memoized BitSize %d, cold re-measure %d", stage, v, got, cold)
			}
			if is.BitSize() != fs.BitSize() {
				t.Fatalf("%s node %d: BitSize diverged: incremental %d, full re-check %d",
					stage, v, is.BitSize(), fs.BitSize())
			}
		}
		if inc.Eng.MaxStateBits() != full.Eng.MaxStateBits() {
			t.Fatalf("%s: MaxStateBits diverged: incremental %d, full re-check %d",
				stage, inc.Eng.MaxStateBits(), full.Eng.MaxStateBits())
		}
	}

	run := func(stage string, k int) {
		for i := 0; i < k; i++ {
			inc.Step()
			full.Step()
			check(stage)
		}
	}
	run("quiet", 20) // memos settle

	// Label-shrinking mutation: drop the stored pieces and truncate the
	// string block at a victim — the label term of BitSize must fall on the
	// very next read, not keep replaying the pre-fault measurement.
	shrink := func(s *VState) {
		// Cnt tracks Stored (the train steps off Cnt before indexing Stored,
		// so the pair must stay consistent — the label checks object to the
		// emptied window regardless).
		s.L.Train.Top.SetStored(nil)
		s.L.Train.Top.Cnt = 0
		s.L.Train.Bottom.SetStored(nil)
		s.L.Train.Bottom.Cnt = 0
		if s.L.HS.Levels() > 2 {
			s.L.HS.SetLevels(2)
		}
	}
	inc.Inject(3, shrink)
	full.Inject(3, shrink)
	check("post-shrink")
	run("shrink", 15)

	// Label-growing mutation: a huge root identity widens the label fields.
	grow := func(s *VState) {
		s.L.SP.RootID += 1 << 40
	}
	inc.Inject(9, grow)
	full.Inject(9, grow)
	check("post-grow")
	run("grow", 15)

	// The whole fault menu, via ApplyFault (which must invalidate even when
	// called on states outside an engine — here through Corrupt's clone).
	rng := rand.New(rand.NewSource(5))
	for kind := 0; kind < int(numFaultKinds); kind++ {
		victim := rng.Intn(g.N())
		for _, r := range []*Runner{inc, full} {
			kindRng := rand.New(rand.NewSource(int64(300*kind + victim)))
			r.InjectKind(victim, FaultKind(kind), kindRng)
		}
		run(fmt.Sprintf("fault-kind-%d", kind), 10)
	}
}

// TestIncrementalAsyncQuiet: the asynchronous daemon also rides the memo
// (current-state reads commit marks immediately); a correct instance stays
// silent with exactly one static recompute per node.
func TestIncrementalAsyncQuiet(t *testing.T) {
	g := graph.RandomConnected(32, 80, 5)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Async, 2)
	r.Eng.Jitter = 0.3
	if err := r.RunQuiet(DetectionBudget(g.N()) / 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Machine.StaticRecomputes(); got != int64(g.N()) {
		t.Fatalf("async quiet run: %d static recomputes, want %d", got, g.N())
	}
}
