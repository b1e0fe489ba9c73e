// Package step is the fixture for the double-buffer ownership contract: a
// round reads the frozen snapshot and writes only its own node's dst
// block. The clean statements are the sanctioned shapes (dst writes,
// read-buffer neighbour reads); the flagged ones write through the
// snapshot.
package step

// State is one node's per-round image.
type State struct {
	Timer int
	Flag  bool
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

	peer.Timer = 0   // want bufferdiscipline:"write through the read snapshot"
	old.Flag = false // want bufferdiscipline:"write through the read snapshot"
}
