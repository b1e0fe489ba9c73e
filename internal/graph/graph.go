// Package graph provides the weighted-graph substrate used throughout the
// reproduction: undirected edge-weighted graphs with unique node identities
// and per-node port numbering (§2.1 of the paper), graph generators,
// Kruskal's MST, rooted trees, and the distinct-weight transform ω′ of Kor
// et al. used when edge weights are not guaranteed distinct (footnote 1 of
// the paper).
//
// NewTree (parent pointers) and TreeFromEdges (an edge set) mark the tree
// edges and share one builder: one rooting pass — a BFS from the root over
// the graph's own port lists that follows marked edges only — and one
// routine that walks tree paths, Tree.WalkPath (the deeper endpoint steps
// first; the walk can stop early). The cycle-property reference IsMST, the
// corrupted-MST generator and verify.PlanChurn all go through them. IsMST
// serves the tests only: production MST verdicts come from internal/oracle.
//
// Nodes are referred to by dense indices 0..n-1 inside the simulator; each
// node additionally carries a unique identity ID(v) of O(log n) bits, which
// is what the distributed algorithms see. Port numbers are local to a node:
// the port of edge (u,v) at u is independent of its port at v.
//
// For hot step loops the adjacency is additionally available in flat CSR
// form (Adjacency / Adj): per-port peer, peer-port and weight arrays laid
// out struct-of-arrays, so a round over all nodes streams the neighbourhood
// data instead of pointer-chasing per-node slices.
//
// # Live topology
//
// Graphs are mutable: AddEdge, RemoveEdge and SetWeight may be called at any
// point, not just during construction. Every mutation bumps the graph's
// Version; the cached CSR is patched in place (SetWeight) or rebuilt on the
// next Adjacency call (AddEdge/RemoveEdge), so CSR reads can never observe a
// pre-mutation topology. RemoveEdge compacts port numbers (ports above the
// removed one shift down by one at each endpoint) and keeps edge indices
// dense (the last edge is swapped into the freed slot). A consumer that
// holds port-indexed state across mutations — the runtime engine — applies
// them through Record, which returns, per mutation, the endpoints and the
// port movements needed to remap that state.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID is a node's unique identity, encoded on O(log n) bits.
type NodeID int64

// Weight is an edge weight, polynomial in n per the model of §2.1.
type Weight int64

// Half is a half-edge: the view of one edge from one endpoint.
type Half struct {
	Peer     int // neighbour's node index
	PeerPort int // the port number of this edge at the peer
	Edge     int // index into Graph.Edges
}

// Edge is an undirected weighted edge between node indices U < V.
type Edge struct {
	U, V int
	W    Weight
}

// Graph is an undirected weighted graph with unique node identities and
// per-node port numbering. The zero value is an empty graph; use New or a
// generator to construct one.
type Graph struct {
	ids   []NodeID
	adj   [][]Half
	edges []Edge

	// version counts mutations (AddEdge, RemoveEdge, SetWeight). csr is the
	// flattened adjacency, built lazily by Adjacency and valid only while
	// csrVersion == version: mutations either patch it in place and advance
	// csrVersion with the graph (SetWeight) or leave csrVersion behind so the
	// next Adjacency call rebuilds (AddEdge, RemoveEdge). Versioning — not an
	// edge count — is what keeps a remove+add pair from serving a stale CSR.
	version    int64
	csr        *Adj
	csrVersion int64

	// recording is set for the duration of a Record call; every mutation
	// made meanwhile appends to changes.
	recording bool
	changes   []Change
}

// ChangeKind says what a Change did to the graph.
type ChangeKind uint8

// The mutation kinds Record reports.
const (
	WeightChanged ChangeKind = iota
	EdgeAdded
	EdgeRemoved
)

func (k ChangeKind) String() string {
	return [...]string{"weight-changed", "edge-added", "edge-removed"}[k]
}

// Change is one mutation as Record reports it: its endpoints and — for
// removals — the port compaction data a consumer needs to remap
// port-indexed state (ports above PortU/PortV shifted down by one at the
// respective endpoint; OldDegU/OldDegV are the degrees *before* the
// removal, i.e. the domain size of the remap).
type Change struct {
	Kind             ChangeKind
	U, V             int
	W                Weight
	PortU, PortV     int // EdgeRemoved: removed ports; EdgeAdded: new ports
	OldDegU, OldDegV int // EdgeRemoved only: degrees before the removal
}

// Adj is the graph's adjacency flattened into CSR (compressed sparse row)
// form: one contiguous slot per half-edge, ordered by (node, port), with the
// hot per-port fields — peer index, peer port, edge weight — stored as
// struct-of-arrays. Hot step loops (the runtime View, the verifier's
// neighbour scan) read these flat arrays instead of chasing the per-node
// []Half slices: one dependent load per access instead of two, and
// neighbouring ports of one node share cache lines.
//
// Node v's ports occupy slots Off[v]..Off[v+1]; Adj is limited to graphs
// with fewer than 2³¹ nodes and edges (int32 indices keep Peer+PeerPort
// within one cache line per 8 ports).
//
// The arrays are owned by the graph and must not be modified. An Adj is a
// snapshot: it reflects the graph at the time of the Adjacency call and is
// safe for concurrent readers as long as no mutation intervenes. SetWeight
// patches the current snapshot's Weight column in place; AddEdge and
// RemoveEdge orphan it (the next Adjacency call rebuilds), so holders must
// re-fetch after structural mutations — the runtime engine does this in
// MutateTopology.
type Adj struct {
	Off      []int32 // len n+1: node v's slots are [Off[v], Off[v+1])
	Peer     []int32 // neighbour node index per slot
	PeerPort []int32 // this edge's port number at the peer
	Weight   []Weight
}

// Degree returns the degree of node v.
func (a *Adj) Degree(v int) int { return int(a.Off[v+1] - a.Off[v]) }

// Adjacency returns the CSR form of the adjacency, building (or rebuilding,
// after a structural mutation) it on first use. The cache is validated by
// the graph's mutation version, so a remove+add pair — which leaves the edge
// count unchanged — can never serve the pre-mutation arrays. Not safe to
// call concurrently with a mutation or with another first-use Adjacency
// call; engines fetch it at construction and re-fetch in MutateTopology.
func (g *Graph) Adjacency() *Adj {
	if g.csr != nil && g.csrVersion == g.version {
		return g.csr
	}
	n := g.N()
	total := 0
	for v := range g.adj {
		total += len(g.adj[v])
	}
	a := &Adj{
		Off:      make([]int32, n+1),
		Peer:     make([]int32, total),
		PeerPort: make([]int32, total),
		Weight:   make([]Weight, total),
	}
	pos := int32(0)
	for v := 0; v < n; v++ {
		a.Off[v] = pos
		for _, h := range g.adj[v] {
			a.Peer[pos] = int32(h.Peer)
			a.PeerPort[pos] = int32(h.PeerPort)
			a.Weight[pos] = g.edges[h.Edge].W
			pos++
		}
	}
	a.Off[n] = pos
	g.csr, g.csrVersion = a, g.version
	return a
}

// Version returns the graph's mutation counter: it advances on every
// AddEdge, RemoveEdge and SetWeight, and is what consumers compare to decide
// whether topology-derived caches are current.
func (g *Graph) Version() int64 { return g.version }

// Record runs f on the graph and returns the mutations it applied, in
// order — also when f fails part-way, together with f's error. Only
// mutations made during the call are recorded; plain construction records
// nothing. A nested Record call panics.
func (g *Graph) Record(f func(*Graph) error) ([]Change, error) {
	if g.recording {
		panic("graph: nested Record")
	}
	g.recording = true
	defer func() { g.recording, g.changes = false, nil }()
	err := f(g)
	return g.changes, err
}

func (g *Graph) record(c Change) {
	if g.recording {
		g.changes = append(g.changes, c)
	}
}

// New creates a graph with n nodes and the given identities. If ids is nil,
// identities 1..n are assigned (scrambled assignment is available through
// generators). New panics if identities are not unique; generators always
// provide unique identities.
func New(n int, ids []NodeID) *Graph {
	g := &Graph{
		ids: make([]NodeID, n),
		adj: make([][]Half, n),
	}
	seen := make(map[NodeID]bool, n)
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		if ids != nil {
			id = ids[i]
		}
		g.ids[i] = id
		if seen[id] {
			panic(fmt.Sprintf("graph: duplicate node identity %d", id))
		}
		seen[id] = true
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// ID returns the identity of node index v.
func (g *Graph) ID(v int) NodeID { return g.ids[v] }

// MaxID returns the largest node identity, used to size identifier fields.
func (g *Graph) MaxID() NodeID {
	var m NodeID
	for _, id := range g.ids {
		if id > m {
			m = id
		}
	}
	return m
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ, the maximum degree over all nodes.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := range g.adj {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Ports returns the half-edges of node v indexed by port number. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Ports(v int) []Half { return g.adj[v] }

// Half returns the half-edge at the given port of v.
func (g *Graph) Half(v, port int) Half { return g.adj[v][port] }

// Edges returns all edges. The slice is owned by the graph.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// AddEdge inserts an undirected edge between node indices u and v with
// weight w and returns its edge index. Self-loops and duplicate edges are
// rejected with an error.
func (g *Graph) AddEdge(u, v int, w Weight) (int, error) {
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return -1, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", u, v, g.N())
	}
	for _, h := range g.adj[u] {
		if h.Peer == v {
			return -1, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
	}
	if u > v {
		u, v = v, u
	}
	e := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	pu, pv := len(g.adj[u]), len(g.adj[v])
	g.adj[u] = append(g.adj[u], Half{Peer: v, PeerPort: pv, Edge: e})
	g.adj[v] = append(g.adj[v], Half{Peer: u, PeerPort: pu, Edge: e})
	g.version++
	g.record(Change{Kind: EdgeAdded, U: u, V: v, W: w, PortU: pu, PortV: pv})
	return e, nil
}

// SetWeight changes the weight of edge e. The cached CSR, if current, is
// patched in place (both half-edge slots), so holders of the Adj snapshot —
// the runtime engine — read the new weight without a rebuild.
func (g *Graph) SetWeight(e int, w Weight) error {
	if e < 0 || e >= len(g.edges) {
		return fmt.Errorf("graph: SetWeight: edge %d out of range m=%d", e, len(g.edges))
	}
	ed := &g.edges[e]
	if ed.W == w {
		return nil
	}
	patch := g.csr != nil && g.csrVersion == g.version
	ed.W = w
	g.version++
	if patch {
		for _, v := range [2]int{ed.U, ed.V} {
			base := int(g.csr.Off[v])
			for p, h := range g.adj[v] {
				if h.Edge == e {
					g.csr.Weight[base+p] = w
					break
				}
			}
		}
		g.csrVersion = g.version // the in-place patch keeps the snapshot current
	}
	g.record(Change{Kind: WeightChanged, U: ed.U, V: ed.V, W: w})
	return nil
}

// RemoveEdge deletes edge e from the graph. Ports are compacted at both
// endpoints — every port above the removed one shifts down by one, and the
// peers of the shifted half-edges have their PeerPort records updated — and
// edge indices stay dense (the last edge is swapped into slot e). The cached
// CSR is orphaned; Record reports the removed ports and the pre-removal
// degrees so the engine can remap port-indexed state.
func (g *Graph) RemoveEdge(e int) error {
	if e < 0 || e >= len(g.edges) {
		return fmt.Errorf("graph: RemoveEdge: edge %d out of range m=%d", e, len(g.edges))
	}
	ed := g.edges[e]
	pu, pv := -1, -1
	for p, h := range g.adj[ed.U] {
		if h.Edge == e {
			pu = p
			break
		}
	}
	for p, h := range g.adj[ed.V] {
		if h.Edge == e {
			pv = p
			break
		}
	}
	if pu < 0 || pv < 0 {
		return fmt.Errorf("graph: RemoveEdge: edge %d not present in adjacency", e)
	}
	ch := Change{
		Kind: EdgeRemoved, U: ed.U, V: ed.V, W: ed.W,
		PortU: pu, PortV: pv,
		OldDegU: len(g.adj[ed.U]), OldDegV: len(g.adj[ed.V]),
	}
	g.compactPort(ed.U, pu)
	g.compactPort(ed.V, pv)
	// Keep edge indices dense: move the last edge into the freed slot and
	// re-point the two halves that referenced it.
	last := len(g.edges) - 1
	if e != last {
		le := g.edges[last]
		g.edges[e] = le
		for _, x := range [2]int{le.U, le.V} {
			for p, h := range g.adj[x] {
				if h.Edge == last {
					g.adj[x][p].Edge = e
					break
				}
			}
		}
	}
	g.edges = g.edges[:last]
	g.csr = nil // structural change: the snapshot's Off/Peer arrays are wrong
	g.version++
	g.record(ch)
	return nil
}

// compactPort removes port p of node v and shifts the ports above it down by
// one, updating the PeerPort record each shifted half-edge's peer holds.
func (g *Graph) compactPort(v, p int) {
	g.adj[v] = append(g.adj[v][:p], g.adj[v][p+1:]...)
	for q := p; q < len(g.adj[v]); q++ {
		h := g.adj[v][q]
		g.adj[h.Peer][h.PeerPort].PeerPort = q
	}
}

// MustAddEdge is AddEdge for construction code with static arguments.
func (g *Graph) MustAddEdge(u, v int, w Weight) int {
	e, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return e
}

// PortTo returns the port number at u of the edge leading to v, or -1 if u
// and v are not adjacent.
func (g *Graph) PortTo(u, v int) int {
	for p, h := range g.adj[u] {
		if h.Peer == v {
			return p
		}
	}
	return -1
}

// EdgeBetween returns the edge index between u and v, or -1.
func (g *Graph) EdgeBetween(u, v int) int {
	for _, h := range g.adj[u] {
		if h.Peer == v {
			return h.Edge
		}
	}
	return -1
}

// Other returns the endpoint of edge e that is not v.
func (g *Graph) Other(e, v int) int {
	ed := g.edges[e]
	if ed.U == v {
		return ed.V
	}
	return ed.U
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.Peer] {
				seen[h.Peer] = true
				count++
				stack = append(stack, h.Peer)
			}
		}
	}
	return count == g.N()
}

// HasDistinctWeights reports whether all edge weights are pairwise distinct.
func (g *Graph) HasDistinctWeights() bool {
	ws := make([]Weight, 0, len(g.edges))
	for _, e := range g.edges {
		ws = append(ws, e.W)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	for i := 1; i < len(ws); i++ {
		if ws[i] == ws[i-1] {
			return false
		}
	}
	return true
}

// BFSDistances returns hop distances from src (unweighted), with -1 for
// unreachable nodes.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			if dist[h.Peer] < 0 {
				dist[h.Peer] = dist[v] + 1
				queue = append(queue, h.Peer)
			}
		}
	}
	return dist
}

// Diameter returns the hop diameter of a connected graph (0 for n ≤ 1),
// computed by the double-sweep bound: BFS from an arbitrary node to find a
// farthest node a, then BFS from a and return a's eccentricity. Two BFS
// passes — O(n+m) — instead of the previous all-pairs O(n·m) sweep, so it is
// safe to call per churn event at n=65536. The value is exact on trees (a is
// always an endpoint of a diametral path) and a lower bound within a factor
// of 2 on general graphs.
func (g *Graph) Diameter() int {
	if g.N() <= 1 {
		return 0
	}
	a, _ := farthest(g.BFSDistances(0))
	_, ecc := farthest(g.BFSDistances(a))
	return ecc
}

// farthest returns the node with the largest finite distance, and that
// distance.
func farthest(dist []int) (node, d int) {
	for v, x := range dist {
		if x > d {
			node, d = v, x
		}
	}
	return node, d
}

// Validate checks structural invariants: port symmetry, edge endpoint order,
// and identity uniqueness. It returns nil on a well-formed graph.
func (g *Graph) Validate() error {
	if len(g.ids) != len(g.adj) {
		return errors.New("graph: ids/adj length mismatch")
	}
	for v := range g.adj {
		for p, h := range g.adj[v] {
			if h.Peer < 0 || h.Peer >= g.N() {
				return fmt.Errorf("graph: node %d port %d: peer out of range", v, p)
			}
			back := g.adj[h.Peer][h.PeerPort]
			if back.Peer != v || back.Edge != h.Edge {
				return fmt.Errorf("graph: asymmetric port at node %d port %d", v, p)
			}
			e := g.edges[h.Edge]
			if !(e.U == v && e.V == h.Peer || e.V == v && e.U == h.Peer) {
				return fmt.Errorf("graph: edge record mismatch at node %d port %d", v, p)
			}
		}
	}
	for _, e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph: edge (%d,%d) not canonical", e.U, e.V)
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ids:   append([]NodeID(nil), g.ids...),
		adj:   make([][]Half, len(g.adj)),
		edges: append([]Edge(nil), g.edges...),
	}
	for v := range g.adj {
		c.adj[v] = append([]Half(nil), g.adj[v]...)
	}
	return c
}
