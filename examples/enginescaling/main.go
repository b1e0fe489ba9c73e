// Engine scaling: how large an n the simulator sustains, and what one
// synchronous round costs. The double-buffered engine allocates nothing in
// its steady-state round loop (Machine.Step recycles the node's
// two-rounds-old state) and fans rounds out over a persistent worker pool —
// and since every machine of the detection pipeline (verifier,
// transformer, SYNC_MST) recycles its states, the paper's asymptotics — O(log² n) detection, O(n) stabilization —
// become empirically checkable at n in the tens of thousands instead of
// toy sizes (`go run ./cmd/experiments -exp detectionscaling`).
//
// This prints the same E14/E14b tables as `go run ./cmd/experiments -exp
// enginescaling`, at example-friendly sizes: the toy-protocol engine
// ceiling first, then the real verifier machine, incremental and
// full-recheck.
package main

import (
	"fmt"

	"ssmst/internal/core"
)

func main() {
	fmt.Println(core.EngineScaling([]int{4096, 16384, 65536}, 50, 1).Markdown())
	fmt.Println(core.VerifierScaling([]int{4096, 16384}, 20, 1).Markdown())
}
