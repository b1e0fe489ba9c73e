// Package step is the fixture for the double-buffer ownership contract: a
// round reads the frozen snapshot and writes only its own node's dst
// block. The clean statements are the sanctioned shapes (dst writes,
// read-buffer neighbour reads, rebinding a shared reference); the flagged
// ones write through the snapshot or through a //ssmst:shared field.
package step

// State is one node's per-round image.
type State struct {
	Timer int
	Flag  bool
	//ssmst:shared -- immutable block shared by every copy of the state
	Lab *Labels
}

// Labels is the shared, immutable per-node block.
type Labels struct {
	Dist int
}

// View mimics the engine's per-(node, round) window by method shape.
type View struct {
	states []*State
	node   int
	peers  []int
}

func (v *View) Self() *State           { return v.states[v.node] }
func (v *View) Neighbour(q int) *State { return v.states[v.peers[q]] }

// step is hot step code held to the ownership rules.
//
//ssmst:hotpath
func step(v *View, dst *State) {
	old := v.Self()
	peer := v.Neighbour(0)

	// The sanctioned shapes: write the own dst block, read the snapshot.
	dst.Flag = old.Flag && peer.Flag
	dst.Timer = peer.Timer + 1
	dst.Lab = old.Lab // rebinding the shared reference is a header copy

	dst.Lab.Dist = 0 // want bufferdiscipline:"write through shared field Lab"

	peer.Timer = 0   // want bufferdiscipline:"write through the read snapshot"
	old.Flag = false // want bufferdiscipline:"write through the read snapshot"
}
