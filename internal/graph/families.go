package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// This file holds the adversarial-campaign graph families the basic menu
// (generators.go) lacks: heavy-tailed degree distributions (PowerLaw),
// metric road-like topologies (Geometric) and locally tree-like expanders
// (HighGirth). Like every generator, they produce connected graphs with
// scrambled unique identities and pairwise-distinct weights, deterministic
// in the seed.

// PowerLaw returns a connected preferential-attachment (Barabási–Albert)
// graph: a seed clique on attach+1 nodes, then each new node links to
// attach distinct existing nodes sampled proportionally to current degree.
// The degree distribution is heavy-tailed — the hub-dominated regime where
// a few nodes carry most adjacency, which stresses Δ-dependent costs.
func PowerLaw(n, attach int, seed int64) *Graph {
	if attach < 1 || attach+1 > n {
		panic(fmt.Sprintf("graph: powerlaw needs 1 <= attach < n (attach=%d n=%d)", attach, n))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	m := (attach+1)*attach/2 + (n-attach-1)*attach
	ws := distinctWeights(m, rng)
	k := 0
	// ends is the endpoint multiset: drawing uniformly from it is exactly
	// degree-proportional sampling.
	ends := make([]int, 0, 2*m)
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			g.MustAddEdge(i, j, ws[k])
			k++
			ends = append(ends, i, j)
		}
	}
	for v := attach + 1; v < n; v++ {
		added := 0
		for added < attach {
			t := ends[rng.Intn(len(ends))]
			if t == v || g.PortTo(v, t) >= 0 {
				continue
			}
			g.MustAddEdge(v, t, ws[k])
			k++
			ends = append(ends, v, t)
			added++
		}
	}
	return g
}

// Geometric returns a connected random geometric ("road-like") graph: n
// points uniform in the unit square, every pair within the connection
// radius linked, and weights assigned by distance rank — shorter links are
// lighter, the metric structure of road networks. The radius targets a mean
// degree of ~6 (the planar-ish regime of road graphs); disconnected
// fragments are stitched to the main component over their geometrically
// nearest crossing pair, rank-continuing the weight sequence.
//
// The points are counting-sorted once into a uniform grid of cells at least
// the radius wide (about n/2 cells), so the candidate pairs come from each
// point's 3×3 block of cells, in O(n + m) expected time besides their sort.
// Each stitch links the component of node 0 to its nearest outside point,
// found by a ring search around every point on the smaller side of that
// cut; the rescan of the smaller side per stitch is the superlinear term.
func Geometric(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	radius := math.Sqrt(6.0 / (math.Pi * float64(n)))
	grid := newPointGrid(xs, ys, radius)
	cands := grid.pairsWithin(radius * radius)
	slices.SortFunc(cands, compareCrossings)
	// distinctWeights is shuffled; sort it ascending so assignment order is
	// distance-rank order (n extra weights reserved for the stitches).
	ws := distinctWeights(len(cands)+n, rng)
	slices.Sort(ws)
	k := 0
	for _, c := range cands {
		g.MustAddEdge(c.u, c.v, ws[k])
		k++
	}
	if n == 0 {
		return g
	}
	// Stitch: while disconnected, link the geometrically nearest pair that
	// crosses the cut of C0, the component of node 0 (label 0), ties broken
	// on (d², u ∈ C0, v). Merging a component relabels only its nodes.
	comp, order, start := components(g)
	// C0's node list; capped so that appending copies it out of order
	// instead of overwriting the next components' lists.
	in0 := order[:start[1]:start[1]]
	for len(in0) < n {
		best := crossing{u: -1, v: -1, d: math.Inf(1)}
		if len(in0) <= n-len(in0) {
			for _, u := range in0 {
				grid.nearestCrossing(u, comp, &best)
			}
		} else {
			for c := 1; c+1 < len(start); c++ {
				if nodes := order[start[c]:start[c+1]]; comp[nodes[0]] != 0 {
					for _, v := range nodes {
						grid.nearestCrossing(v, comp, &best)
					}
				}
			}
		}
		g.MustAddEdge(best.u, best.v, ws[k])
		k++
		merged := order[start[comp[best.v]]:start[comp[best.v]+1]]
		for _, v := range merged {
			comp[v] = 0
		}
		in0 = append(in0, merged...)
	}
	return g
}

// crossing is a point pair (u, v) at squared distance d.
type crossing struct {
	u, v int
	d    float64
}

// compareCrossings orders crossings by (d, u, v).
func compareCrossings(a, b crossing) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	if c := cmp.Compare(a.u, b.u); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// pointGrid buckets points of the unit square into side×side square cells
// of width 1/side: cell c holds byCell[start[c]:start[c+1]], ascending.
type pointGrid struct {
	xs, ys        []float64
	side          int
	cx, cy        []int // each point's cell column and row
	start, byCell []int
}

// newPointGrid counting-sorts the points into cells at least radius wide.
// The side is clamped to one cell (radius is +Inf at n=0 and above 1 at
// n=1), and the 1e-9 slack keeps a cell wider than the radius after the
// rounding of x·side, so pairs within the radius sit in adjacent cells.
func newPointGrid(xs, ys []float64, radius float64) *pointGrid {
	n := len(xs)
	side := max(1, int(1/(radius*(1+1e-9))))
	gr := &pointGrid{
		xs: xs, ys: ys, side: side,
		cx: make([]int, n), cy: make([]int, n),
		start: make([]int, side*side+1), byCell: make([]int, n),
	}
	for v := range n {
		gr.cx[v] = min(int(xs[v]*float64(side)), side-1)
		gr.cy[v] = min(int(ys[v]*float64(side)), side-1)
		gr.start[gr.cell(v)+1]++
	}
	for c := range side * side {
		gr.start[c+1] += gr.start[c]
	}
	next := slices.Clone(gr.start[:side*side])
	for v := range n {
		c := gr.cell(v)
		gr.byCell[next[c]] = v
		next[c]++
	}
	return gr
}

func (gr *pointGrid) cell(v int) int { return gr.cy[v]*gr.side + gr.cx[v] }

// d2 is the squared distance between points u and v.
func (gr *pointGrid) d2(u, v int) float64 {
	dx, dy := gr.xs[u]-gr.xs[v], gr.ys[u]-gr.ys[v]
	return dx*dx + dy*dy
}

// pairsWithin returns every pair u < v at squared distance at most r2,
// where r2 is at most the squared cell width: each lies in u's 3×3 block.
func (gr *pointGrid) pairsWithin(r2 float64) []crossing {
	var out []crossing
	for u := range gr.xs {
		for y := max(gr.cy[u]-1, 0); y <= min(gr.cy[u]+1, gr.side-1); y++ {
			for x := max(gr.cx[u]-1, 0); x <= min(gr.cx[u]+1, gr.side-1); x++ {
				c := y*gr.side + x
				for _, v := range gr.byCell[gr.start[c]:gr.start[c+1]] {
					if v > u {
						if d := gr.d2(u, v); d <= r2 {
							out = append(out, crossing{u, v, d})
						}
					}
				}
			}
		}
	}
	return out
}

// nearestCrossing lowers *best to the least crossing (d², u ∈ C0, v ∉ C0)
// between point q and the points on the other side of the cut of C0 (the
// points labelled 0 in comp). It scans the rings of cells around q's cell
// outward, and stops at the first ring whose points all lie farther than
// best: a point k rings out is more than (k-1)/side from q.
func (gr *pointGrid) nearestCrossing(q int, comp []int, best *crossing) {
	qIn0 := comp[q] == 0
	cx, cy, side := gr.cx[q], gr.cy[q], gr.side
	last := max(cx, side-1-cx, cy, side-1-cy)
	for k := 0; k <= last; k++ {
		if lb := float64(k-1)/float64(side) - 1e-9; lb > 0 && lb*lb > best.d {
			return
		}
		for y := max(cy-k, 0); y <= min(cy+k, side-1); y++ {
			step := 2 * k // between its top and bottom rows, the ring is two cells
			if y == cy-k || y == cy+k {
				step = 1
			}
			for x := cx - k; x <= cx+k; x += step {
				if x < 0 || x >= side {
					continue
				}
				c := y*side + x
				for _, w := range gr.byCell[gr.start[c]:gr.start[c+1]] {
					if (comp[w] == 0) == qIn0 {
						continue
					}
					cand := crossing{u: q, v: w, d: gr.d2(q, w)}
					if !qIn0 {
						cand.u, cand.v = w, q
					}
					if compareCrossings(cand, *best) < 0 {
						*best = cand
					}
				}
			}
		}
	}
}

// components labels g's connected components 0, 1, … in order of their
// lowest node: component c's nodes are order[start[c]:start[c+1]], in BFS
// order.
func components(g *Graph) (comp, order, start []int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	order = make([]int, 0, g.N())
	start = []int{0}
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		c := len(start) - 1
		comp[s] = c
		order = append(order, s)
		for i := start[c]; i < len(order); i++ {
			for _, h := range g.Ports(order[i]) {
				if comp[h.Peer] < 0 {
					comp[h.Peer] = c
					order = append(order, h.Peer)
				}
			}
		}
		start = append(start, len(order))
	}
	return comp, order, start
}

// HighGirth returns a connected n-node graph with girth ≥ girth: a
// Hamiltonian-path backbone plus random chords accepted only when their
// endpoints are at graph distance ≥ girth-1 at insertion time, so every
// cycle a chord closes has length ≥ girth. It aims for m edges with a
// bounded number of attempts; dense high-girth regimes may stop below m
// (connectivity, the girth bound and seed determinism always hold). Locally
// tree-like graphs are the worst case for neighbourhood-local checks: no
// short cycle ever corroborates a label.
//
// Each chord is screened by a BFS truncated at depth girth-2 whose visited
// stamps, distances and queue are allocated once per call, so an attempt
// costs only the nodes it reaches: O(n + attempts·Δ^(girth-2)) in all.
func HighGirth(n, m, girth int, seed int64) *Graph {
	if girth < 3 {
		panic(fmt.Sprintf("graph: highgirth needs girth >= 3 (girth=%d)", girth))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(m+n, rng)
	k := 0
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, ws[k])
		k++
	}
	bfs := truncatedBFS{seen: make([]int, n), dist: make([]int, n)}
	for attempts := 0; g.M() < m && attempts < 30*m; attempts++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.PortTo(u, v) >= 0 || bfs.within(g, u, v, girth-2) {
			continue
		}
		g.MustAddEdge(u, v, ws[k])
		k++
	}
	return g
}

// truncatedBFS is a reusable BFS: node x was reached by the current search
// iff seen[x] == epoch, and then lies dist[x] hops from its source.
type truncatedBFS struct {
	seen, dist, queue []int
	epoch             int
}

// within reports whether v is reachable from u in at most limit hops.
func (b *truncatedBFS) within(g *Graph, u, v, limit int) bool {
	if u == v {
		return true
	}
	b.epoch++
	b.seen[u], b.dist[u] = b.epoch, 0
	b.queue = append(b.queue[:0], u)
	for i := 0; i < len(b.queue); i++ {
		x := b.queue[i]
		if b.dist[x] >= limit {
			continue
		}
		for _, h := range g.Ports(x) {
			if b.seen[h.Peer] != b.epoch {
				if h.Peer == v {
					return true
				}
				b.seen[h.Peer], b.dist[h.Peer] = b.epoch, b.dist[x]+1
				b.queue = append(b.queue, h.Peer)
			}
		}
	}
	return false
}

// powerLawAttach is the "powerlaw" family's links per new node.
const powerLawAttach = 3

// Families lists the campaign graph-family names ByFamily resolves — the
// single menu CLI flags and campaign specs parse against.
func Families() []string {
	return []string{"random", "powerlaw", "geometric", "highgirth"}
}

// ByFamily builds the named campaign family at n nodes: "random"
// (RandomConnected, m=3n), "powerlaw" (preferential attachment, 3 links per
// node), "geometric" (road-like, mean degree ~6), "highgirth" (girth ≥ 6,
// m=2n target). Unknown names, and n below a family's minimum (powerlaw
// needs its 4-node seed clique), are an error, never a silent default.
func ByFamily(name string, n int, seed int64) (*Graph, error) {
	switch name {
	case "random":
		return RandomConnected(n, 3*n, seed), nil
	case "powerlaw":
		if n < powerLawAttach+1 {
			return nil, fmt.Errorf("graph: family %q needs n >= %d (n=%d)", name, powerLawAttach+1, n)
		}
		return PowerLaw(n, powerLawAttach, seed), nil
	case "geometric":
		return Geometric(n, seed), nil
	case "highgirth":
		return HighGirth(n, 2*n, 6, seed), nil
	}
	return nil, fmt.Errorf("graph: unknown family %q (families: %v)", name, Families())
}
