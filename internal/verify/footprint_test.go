package verify

import (
	"testing"
	"unsafe"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/raceflag"
	"ssmst/internal/train"
)

// TestStateFootprint pins the verifier's per-node register file to its size
// classes. 320 bytes is one of Go's allocation size classes, and every node
// holds one VState in each of the engine's two buffers, so a field that
// pushes VState past 320 bytes moves it into the 352-byte class or a larger
// one and costs heap_bytes_per_node 64 B per node or more, with no test
// failing and no verdict moving. Each VState embeds two train.States, which is where a
// widened train register shows first. The widths assume 64-bit words.
func TestStateFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) < 8 {
		t.Skip("the size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(train.State{}); got > 96 {
		t.Errorf("train.State is %d bytes, want ≤ 96", got)
	}
	if got := unsafe.Sizeof(VState{}); got > 320 {
		t.Errorf("VState is %d bytes, want ≤ 320 (a Go size class)", got)
	}
}

// TestLabelFootprint pins the label block to a fixed-size value: the marker
// keeps one NodeLabels per node in a single array, so every byte here is a
// byte of heap_bytes_per_node, and a slice field put back would add its
// header and an allocation per node. The strings hold 6 bits per level in
// six bit planes and a level count; a train's labels hold the part root's
// identity, six 32-bit position labels and two inline pieces.
func TestLabelFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) < 8 {
		t.Skip("the sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(hierarchy.Strings{}); got > 56 {
		t.Errorf("hierarchy.Strings is %d bytes, want ≤ 56", got)
	}
	if got := unsafe.Sizeof(train.Labels{}); got > 88 {
		t.Errorf("train.Labels is %d bytes, want ≤ 88", got)
	}
	if got := unsafe.Sizeof(NodeLabels{}); got > 280 {
		t.Errorf("NodeLabels is %d bytes, want ≤ 280", got)
	}
}

// TestMarkingAllocatesNoPerNodeBlock: MarkStrings and train.Mark make the
// same number of allocations at n=1024 and n=4096 — whole arrays, no slice
// per node — and VState.Clone copies a state with at most two (the state
// and its label block).
func TestMarkingAllocatesNoPerNodeBlock(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	var strs, trains [2]float64
	var l *Labeled
	for i, n := range []int{1024, 4096} {
		var err error
		l, err = Mark(graph.RandomConnected(n, 2*n, 1))
		if err != nil {
			t.Fatal(err)
		}
		strs[i] = testing.AllocsPerRun(3, func() { hierarchy.MarkStrings(l.H) })
		trains[i] = testing.AllocsPerRun(3, func() { train.Mark(l.Parts) })
	}
	if strs[0] != strs[1] {
		t.Errorf("MarkStrings: %v allocations at n=1024, %v at n=4096", strs[0], strs[1])
	}
	if trains[0] != trains[1] {
		t.Errorf("train.Mark: %v allocations at n=1024, %v at n=4096", trains[0], trains[1])
	}
	s := l.NodeState(0)
	if got := testing.AllocsPerRun(100, func() { s.Clone() }); got > 2 {
		t.Errorf("VState.Clone: %v allocations, want ≤ 2", got)
	}
}
