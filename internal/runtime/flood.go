package runtime

import (
	"ssmst/internal/bits"
	"ssmst/internal/graph"
)

// FloodMinState is the state of the engine-measurement protocol: the
// smallest identity heard so far.
type FloodMinState struct {
	Min graph.NodeID
}

// BitSize implements bits.Sized.
func (s *FloodMinState) BitSize() int { return bits.ForInt(int64(s.Min)) }

// Clone implements State.
func (s *FloodMinState) Clone() State { c := *s; return &c }

// Alarm implements State: flooding never rejects.
func (s *FloodMinState) Alarm() bool { return false }

// Done implements State: flooding never terminates.
func (s *FloodMinState) Done() bool { return false }

// FloodMin is minimum-identity flooding: the simplest register protocol
// that touches every neighbour state each round. It exists to measure the
// engine itself — per-round overhead, allocations, parallel scaling — in
// benchmarks, experiments, and examples, without the cost profile of any
// particular paper algorithm. Its Step recycles the scratch state, so its
// steady-state round loop allocates nothing.
type FloodMin struct{}

// Init implements Machine.
func (FloodMin) Init(v *View) State { return &FloodMinState{Min: v.ID()} }

// Step implements Machine, recycling the two-rounds-old state.
func (FloodMin) Step(v *View, scratch State) State {
	min := v.Self().(*FloodMinState).Min
	for p := 0; p < v.Degree(); p++ {
		if ns := v.Neighbour(p).(*FloodMinState); ns.Min < min {
			min = ns.Min
		}
	}
	s, ok := scratch.(*FloodMinState)
	if !ok {
		s = &FloodMinState{}
	}
	s.Min = min
	return s
}

var _ Machine = FloodMin{}
