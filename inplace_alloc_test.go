package ssmst

import (
	"ssmst/internal/raceflag"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/verify"
)

// TestDetectionPipelineAllocFree asserts the tentpole property of the
// in-place detection pipeline: once warmed up, a synchronous round of the
// §7 verifier and of the §10 transformer (check phase) performs zero heap
// allocations, and so does an asynchronous time unit of each (Jitter 0.3,
// so some nodes step several times per unit), whose activations recycle
// the node's state from two activations back, and a worklist round of the
// transformer inside its build phase. BenchmarkEngineScaling reports the
// synchronous quantity; this test makes all of them a hard gate.
func TestDetectionPipelineAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := graph.RandomConnected(192, 480, 4)
	l, err := verify.Mark(g)
	if err != nil {
		t.Fatal(err)
	}

	vm := &verify.Machine{Mode: verify.Sync, Labeled: l}
	sm := selfstab.NewMachine(g, g.N(), verify.Sync)
	verifier := runtime.New(g, vm, 1)
	transformer := runtime.New(g, sm, 1)
	selfstab.SeedChecked(transformer, l)
	syncmstEng := runtime.New(g, syncmst.Machine{}, 1)
	asyncVerifier := runtime.New(g, &verify.Machine{Mode: verify.Async, Labeled: l}, 1)
	asyncTransformer := runtime.New(g, selfstab.NewMachine(g, g.N(), verify.Async), 1)
	selfstab.SeedChecked(asyncTransformer, l)
	asyncVerifier.Jitter, asyncTransformer.Jitter = 0.3, 0.3

	for _, in := range []struct {
		name string
		step func()
	}{
		{"verifier", verifier.StepSync},
		{"transformer", transformer.StepSync},
		{"async verifier", asyncVerifier.StepAsync},
		{"async transformer", asyncTransformer.StepAsync},
	} {
		// Warm up: fill both buffers and let every reusable buffer (scratch
		// slices, recycled sub-states, the activation order) reach its
		// steady-state capacity.
		for i := 0; i < 8; i++ {
			in.step()
		}
		if avg := testing.AllocsPerRun(16, in.step); avg != 0 {
			t.Errorf("%s: %.1f allocs per steady-state round or time unit, want 0", in.name, avg)
		}
	}
	if !asyncTransformer.AllDone() {
		t.Error("async transformer: left the check phase; the time units measured were not the quiet check phase")
	}

	// The quiet steady state must also be on the PR 4 dynamic-layer fast
	// paths: no static recomputes (PR 3's memo) and no deep label copies
	// (labels are shared by reference) per round — standalone and inside
	// the transformer's check phase.
	for name, m := range map[string]*verify.Machine{
		"verifier":    vm,
		"transformer": sm.Verifier(),
	} {
		e := verifier
		if name == "transformer" {
			e = transformer
		}
		copies, recomputes := m.LabelCopies(), m.StaticRecomputes()
		e.RunSyncRounds(4)
		if got := m.LabelCopies() - copies; got != 0 {
			t.Errorf("%s: %d label copies over 4 quiet rounds, want 0 (labels are shared)", name, got)
		}
		if got := m.StaticRecomputes() - recomputes; got != 0 {
			t.Errorf("%s: %d static recomputes over 4 quiet rounds, want 0", name, got)
		}
	}

	// The worklist transformer inside its build phase: rounds that step no
	// node, rounds where every node's timed SYNC_MST pulse arrives at once,
	// and the waves those pulses start, allocate nothing once each node has
	// filled its build slots.
	wl := selfstab.NewRunner(g, g.N(), verify.Sync, 1)
	inBuild := func(minPulse int) bool {
		st := wl.Eng.State(0).(*selfstab.SState)
		return st.Phase == selfstab.PhaseBuild && st.Pulse >= minPulse
	}
	for !inBuild(200) {
		wl.Step()
	}
	quiet, full, partial := 0, 0, 0
	if avg := testing.AllocsPerRun(800, func() {
		wl.Step()
		switch a := wl.Eng.LastActive(); {
		case a == 0:
			quiet++
		case a == g.N():
			full++
		default:
			partial++
		}
	}); avg != 0 {
		t.Errorf("worklist transformer: %.2f allocs per build-phase round, want 0", avg)
	}
	if quiet == 0 || full == 0 || partial == 0 || !inBuild(1000) {
		t.Errorf("worklist transformer: %d quiet, %d all-node and %d partial rounds, node 0 in %v: the stretch did not cover the build phase's round kinds",
			quiet, full, partial, wl.Eng.State(0).(*selfstab.SState).Phase)
	}

	// SYNC_MST allocates only at phase boundaries (a handful of rounds out
	// of O(n)); assert the common round is allocation-free by sampling a
	// mid-phase stretch.
	syncmstEng.RunSyncRounds(12)
	if avg := testing.AllocsPerRun(8, syncmstEng.StepSync); avg != 0 {
		t.Errorf("syncmst: %.1f allocs per mid-phase round, want 0", avg)
	}
}
