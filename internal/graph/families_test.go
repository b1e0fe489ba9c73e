package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestFamiliesWellFormed: every campaign family is connected, has unique
// scrambled identities and pairwise-distinct weights, and is deterministic
// in the seed.
func TestFamiliesWellFormed(t *testing.T) {
	const n, seed = 128, int64(7)
	for _, fam := range Families() {
		g, err := ByFamily(fam, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != n {
			t.Errorf("family %s seed %d: n=%d want %d", fam, seed, g.N(), n)
		}
		if !g.Connected() {
			t.Errorf("family %s seed %d: not connected", fam, seed)
		}
		if !g.HasDistinctWeights() {
			t.Errorf("family %s seed %d: duplicate weights", fam, seed)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("family %s seed %d: %v", fam, seed, err)
		}
		g2, err := ByFamily(fam, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEdges(g, g2) {
			t.Errorf("family %s seed %d: not deterministic in the seed", fam, seed)
		}
		g3, err := ByFamily(fam, n, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		if sameEdges(g, g3) {
			t.Errorf("family %s: seeds %d and %d produce identical graphs", fam, seed, seed+1)
		}
	}
	if _, err := ByFamily("no-such-family", n, seed); err == nil {
		t.Error("unknown family name did not error")
	}
}

// TestByFamilySmallN: at n ∈ {0..4} every family returns a connected graph
// or an error, never a panic (powerlaw needs n ≥ 4 for its seed clique).
func TestByFamilySmallN(t *testing.T) {
	for _, fam := range Families() {
		for n := 0; n <= 4; n++ {
			g, err := ByFamily(fam, n, 1)
			if err == nil && (g.N() != n || !g.Connected()) {
				t.Errorf("family %s n=%d: got n=%d connected=%v", fam, n, g.N(), g.Connected())
			}
			if err != nil && !strings.Contains(err.Error(), fam) {
				t.Errorf("family %s n=%d: error %q does not name the family", fam, n, err)
			}
		}
	}
}

func sameEdges(a, b *Graph) bool {
	if a.M() != b.M() {
		return false
	}
	for e := 0; e < a.M(); e++ {
		ea, eb := a.Edge(e), b.Edge(e)
		if ea.U != eb.U || ea.V != eb.V || ea.W != eb.W {
			return false
		}
	}
	return true
}

// sameGraph reports whether a and b have the same identities and the same
// edge list, weights and endpoint order included.
func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.ID(v) != b.ID(v) {
			return false
		}
	}
	return sameEdges(a, b)
}

// equivalenceSizes are the sizes at which the generators must reproduce
// their naive references: every n up to 8 (n=0 has no node 0, n=1 has a
// radius above 1), and a few sizes with several stitches.
var equivalenceSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 33, 100, 256, 1024}

// TestGeometricMatchesNaive: the grid-bucketed Geometric builds exactly the
// graph of the all-pairs reference: same identities, edges, endpoint order
// and weights.
func TestGeometricMatchesNaive(t *testing.T) {
	for _, n := range equivalenceSizes {
		for seed := int64(1); seed <= 20; seed++ {
			if got, want := Geometric(n, seed), geometricNaive(n, seed); !sameGraph(got, want) {
				t.Fatalf("n=%d seed %d: Geometric differs from the naive reference (m=%d, want %d)", n, seed, got.M(), want.M())
			}
		}
	}
}

// TestHighGirthMatchesNaive: HighGirth with its reused BFS builds exactly
// the graph of the reference that allocates a BFS per attempt.
func TestHighGirthMatchesNaive(t *testing.T) {
	for _, n := range equivalenceSizes {
		for seed := int64(1); seed <= 20; seed++ {
			if got, want := HighGirth(n, 2*n, 6, seed), highGirthNaive(n, 2*n, 6, seed); !sameGraph(got, want) {
				t.Fatalf("n=%d seed %d: HighGirth differs from the naive reference (m=%d, want %d)", n, seed, got.M(), want.M())
			}
		}
	}
}

// FuzzGeometric explores (n ≤ 2048, seed) beyond the equivalence table.
func FuzzGeometric(f *testing.F) {
	for _, c := range []struct {
		n    uint16
		seed int64
	}{{0, 1}, {1, 1}, {2, 5}, {9, 3}, {300, 11}, {2048, 2}} {
		f.Add(c.n, c.seed)
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		n %= 2049
		if got, want := Geometric(int(n), seed), geometricNaive(int(n), seed); !sameGraph(got, want) {
			t.Fatalf("n=%d seed %d: Geometric differs from the naive reference (m=%d, want %d)", n, seed, got.M(), want.M())
		}
	})
}

// TestNearestCrossingTies: random points never tie on d², so this puts
// them on a lattice of eighths, where many pairs tie and points sit on cell
// borders. Ring searches from either side of the cut must find the least
// (d², u ∈ C0, v) crossing, the pair geometricNaive's scan order picks.
func TestNearestCrossingTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		xs, ys, comp := make([]float64, n), make([]float64, n), make([]int, n)
		for v := range n {
			xs[v], ys[v], comp[v] = float64(rng.Intn(8))/8, float64(rng.Intn(8))/8, rng.Intn(3)
		}
		comp[0], comp[n-1] = 0, 1
		radius := []float64{0.1, 0.2, 0.3, 2}[trial%4]
		grid := newPointGrid(xs, ys, radius)
		none := crossing{u: -1, v: -1, d: math.Inf(1)}
		want, fromC0, fromOthers := none, none, none
		for u := range n {
			for v := range n {
				if c := (crossing{u, v, grid.d2(u, v)}); comp[u] == 0 && comp[v] != 0 && compareCrossings(c, want) < 0 {
					want = c
				}
			}
		}
		for q := range n {
			if comp[q] == 0 {
				grid.nearestCrossing(q, comp, &fromC0)
			} else {
				grid.nearestCrossing(q, comp, &fromOthers)
			}
		}
		if fromC0 != want || fromOthers != want {
			t.Fatalf("trial %d (n=%d radius %v): from C0 %+v, from the other side %+v, want %+v", trial, n, radius, fromC0, fromOthers, want)
		}
	}
}

// geometricNaive is the reference Geometric: it enumerates all n² point
// pairs, and each stitch relabels every component and rescans all n² pairs
// for the nearest one crossing the cut of node 0's component.
func geometricNaive(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	d2 := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return dx*dx + dy*dy
	}
	radius := math.Sqrt(6.0 / (math.Pi * float64(n)))
	type pair struct {
		u, v int
		d    float64
	}
	var cands []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := d2(u, v); d <= radius*radius {
				cands = append(cands, pair{u, v, d})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		if cands[i].u != cands[j].u {
			return cands[i].u < cands[j].u
		}
		return cands[i].v < cands[j].v
	})
	ws := distinctWeights(len(cands)+n, rng)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	k := 0
	for _, c := range cands {
		g.MustAddEdge(c.u, c.v, ws[k])
		k++
	}
	for {
		comp := componentLabels(g)
		bu, bv, bd := -1, -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if comp[u] != comp[0] {
				continue
			}
			for v := 0; v < n; v++ {
				if comp[v] == comp[0] {
					continue
				}
				if d := d2(u, v); d < bd {
					bu, bv, bd = u, v, d
				}
			}
		}
		if bu < 0 {
			return g
		}
		g.MustAddEdge(bu, bv, ws[k])
		k++
	}
}

// componentLabels returns a connected-component label per node.
func componentLabels(g *Graph) []int {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.Ports(v) {
				if comp[h.Peer] < 0 {
					comp[h.Peer] = next
					queue = append(queue, h.Peer)
				}
			}
		}
		next++
	}
	return comp
}

// highGirthNaive is the reference HighGirth: each chord screen allocates
// its own BFS.
func highGirthNaive(n, m, girth int, seed int64) *Graph {
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
	for attempts := 0; g.M() < m && attempts < 30*m; attempts++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.PortTo(u, v) >= 0 || withinDistance(g, u, v, girth-2) {
			continue
		}
		g.MustAddEdge(u, v, ws[k])
		k++
	}
	return g
}

// withinDistance reports whether v is reachable from u in at most limit
// hops, by a fresh BFS truncated at depth limit.
func withinDistance(g *Graph, u, v, limit int) bool {
	if u == v {
		return true
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, u)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] >= limit {
			continue
		}
		for _, h := range g.Ports(x) {
			if dist[h.Peer] < 0 {
				if h.Peer == v {
					return true
				}
				dist[h.Peer] = dist[x] + 1
				queue = append(queue, h.Peer)
			}
		}
	}
	return false
}

// TestPowerLawHeavyTail: preferential attachment must produce hubs — a max
// degree well above the attachment count, unlike the uniform random family.
func TestPowerLawHeavyTail(t *testing.T) {
	const n, attach, seed = 256, 3, int64(5)
	g := PowerLaw(n, attach, seed)
	if g.MaxDegree() <= 3*attach {
		t.Errorf("seed %d: max degree %d shows no heavy tail (attach=%d)", seed, g.MaxDegree(), attach)
	}
}

// TestHighGirthBound: every cycle of the high-girth family is at least the
// requested girth (checked exactly: shortest cycle through each edge).
func TestHighGirthBound(t *testing.T) {
	const n, girth, seed = 96, 6, int64(9)
	g := HighGirth(n, 2*n, girth, seed)
	if g.M() <= n-1 {
		t.Fatalf("seed %d: no chords were accepted (m=%d)", seed, g.M())
	}
	if got := exactGirth(g); got < girth {
		t.Errorf("seed %d: girth %d < requested %d", seed, got, girth)
	}
}

// exactGirth computes the girth by finding, per edge, the shortest
// alternative path between its endpoints with the edge itself removed.
func exactGirth(g *Graph) int {
	best := -1
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		d := distanceAvoiding(g, ed.U, ed.V, e)
		if d >= 0 && (best < 0 || d+1 < best) {
			best = d + 1
		}
	}
	return best
}

func distanceAvoiding(g *Graph, u, v, skip int) int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, h := range g.Ports(x) {
			if h.Edge == skip || dist[h.Peer] >= 0 {
				continue
			}
			dist[h.Peer] = dist[x] + 1
			if h.Peer == v {
				return dist[h.Peer]
			}
			queue = append(queue, h.Peer)
		}
	}
	return -1
}

// TestCorruptedMSTGenerator: k=0 reproduces the MST; each edit strictly
// increases total weight (so k ≥ 1 is certifiably non-minimal); output is
// always spanning; and Generate is deterministic in (k, seed) alone.
func TestCorruptedMSTGenerator(t *testing.T) {
	const seed = int64(13)
	g := RandomConnected(96, 3*96, seed)
	gen, err := NewCorruptedMSTGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	mst := gen.MST()
	t0, err := gen.Generate(0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0) != len(mst) {
		t.Fatalf("seed %d: k=0 tree has %d edges, MST has %d", seed, len(t0), len(mst))
	}
	for i := range mst {
		if t0[i] != mst[i] {
			t.Fatalf("seed %d: k=0 does not reproduce the MST", seed)
		}
	}
	prev := mstWeight(g, mst)
	for _, k := range []int{1, 2, 4, 8, 16, 24} {
		tree, err := gen.Generate(k, seed)
		if err != nil {
			t.Fatalf("seed %d k=%d: %v", seed, k, err)
		}
		if !IsSpanningTree(g, tree) {
			t.Fatalf("seed %d k=%d: not a spanning tree", seed, k)
		}
		if IsMST(g, tree, ByWeight(g)) {
			t.Fatalf("seed %d k=%d: still minimal", seed, k)
		}
		w := mstWeight(g, tree)
		if w <= prev {
			t.Fatalf("seed %d k=%d: weight %d did not increase (prev %d)", seed, k, w, prev)
		}
		prev = w
		again, err := gen.Generate(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tree {
			if tree[i] != again[i] {
				t.Fatalf("seed %d k=%d: Generate is not deterministic in (k, seed)", seed, k)
			}
		}
	}
	other, err := gen.Generate(4, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := gen.Generate(4, seed)
	same := len(other) == len(base)
	for i := 0; same && i < len(base); i++ {
		same = other[i] == base[i]
	}
	if same {
		t.Errorf("seeds %d and %d produced identical k=4 corruptions", seed, seed+1)
	}
}

// TestCorruptedMSTGeneratorSaturates: a tree-only graph admits no cycle
// edit — Generate must fail loudly, not return the MST as "corrupted".
func TestCorruptedMSTGeneratorSaturates(t *testing.T) {
	g := Path(16, 3)
	gen, err := NewCorruptedMSTGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(1, 1); err == nil {
		t.Fatal("saturated generator returned a tree without error")
	}
}
