package verify

import (
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
)

// TestParallelVerifierMatchesSerial forces worker-pool fan-out on the real
// verifier machine (normally gated behind the parallelism threshold) and
// asserts the resulting states are identical to serial stepping — the
// engine's bit-identical-parallelism guarantee on a production machine, not
// just the toy protocol. Run under -race in CI.
func TestParallelVerifierMatchesSerial(t *testing.T) {
	g := graph.RandomConnected(48, 120, 5)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewRunner(l, Sync, 3)
	serial.Eng.Parallel = false
	par := NewRunner(l, Sync, 3)
	par.Eng.Workers = runtime.PoolWorkers() // at any n, even on a single-core host
	for r := 0; r < 60; r++ {
		serial.Step()
		par.Step()
	}
	for v := 0; v < g.N(); v++ {
		if !reflect.DeepEqual(serial.Eng.State(v), par.Eng.State(v)) {
			t.Fatalf("node %d: parallel verifier state diverged from serial", v)
		}
	}
	if serial.Eng.MaxStateBits() != par.Eng.MaxStateBits() {
		t.Fatalf("maxBits diverged: serial %d parallel %d",
			serial.Eng.MaxStateBits(), par.Eng.MaxStateBits())
	}
}
