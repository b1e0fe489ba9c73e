package verify

import (
	"testing"
	"unsafe"

	"ssmst/internal/train"
)

// TestStateFootprint pins the verifier's per-node register file to its size
// classes. 352 bytes is one of Go's allocation size classes, and every node
// holds one VState in each of the engine's two buffers, so a field that
// pushes VState past 352 bytes moves it into the 384- or 512-byte class and
// costs heap_bytes_per_node 64 B per node or more, with no test failing and
// no verdict moving. Each VState embeds two train.States, which is where a
// widened train register shows first. The widths assume 64-bit words.
func TestStateFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) < 8 {
		t.Skip("the size classes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(train.State{}); got > 96 {
		t.Errorf("train.State is %d bytes, want ≤ 96", got)
	}
	if got := unsafe.Sizeof(VState{}); got > 352 {
		t.Errorf("VState is %d bytes, want ≤ 352 (a Go size class)", got)
	}
}
