package graph

import (
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
	prev := MSTWeight(g, mst)
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
		w := MSTWeight(g, tree)
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
