package graph

import (
	"fmt"
	"math/rand"
)

// Generators produce connected graphs with unique, scrambled node identities
// and pairwise-distinct edge weights (unless stated otherwise), matching the
// standard model assumptions of §2.1. All generators are deterministic in
// the provided seed.

// scrambledIDs returns n unique identities in [1, 4n], shuffled, so that
// identity order is independent of index order (algorithms must not rely on
// index order).
func scrambledIDs(n int, rng *rand.Rand) []NodeID {
	pool := rng.Perm(4*n + 1)
	ids := make([]NodeID, n)
	k := 0
	for _, p := range pool {
		if p == 0 {
			continue
		}
		ids[k] = NodeID(p)
		k++
		if k == n {
			break
		}
	}
	return ids
}

// distinctWeights returns m pairwise distinct weights in [1, poly(m)],
// shuffled.
func distinctWeights(m int, rng *rand.Rand) []Weight {
	perm := rng.Perm(4 * m)
	ws := make([]Weight, m)
	for i := 0; i < m; i++ {
		ws[i] = Weight(perm[i] + 1)
	}
	return ws
}

// Path returns the path v0-v1-...-v(n-1).
func Path(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n, rng)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, ws[i])
	}
	return g
}

// Ring returns a cycle on n ≥ 3 nodes.
func Ring(n int, seed int64) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n, rng)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n, ws[i])
	}
	return g
}

// Grid returns an r×c grid graph.
func Grid(r, c int, seed int64) *Graph {
	n := r * c
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(2*n, rng)
	k := 0
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.MustAddEdge(at(i, j), at(i, j+1), ws[k])
				k++
			}
			if i+1 < r {
				g.MustAddEdge(at(i, j), at(i+1, j), ws[k])
				k++
			}
		}
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n*n, rng)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j, ws[k])
			k++
		}
	}
	return g
}

// Star returns a star with center node 0 and n-1 leaves; its maximum degree
// is n-1, useful for Δ-sweeps.
func Star(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n, rng)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i, ws[i-1])
	}
	return g
}

// RandomConnected returns a connected graph with n nodes and m edges,
// m ≥ n-1: a random spanning tree plus random extra edges.
func RandomConnected(n, m int, seed int64) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: m=%d < n-1=%d", m, n-1))
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(m+n, rng)
	k := 0
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(perm[i], perm[rng.Intn(i)], ws[k])
		k++
	}
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.PortTo(u, v) >= 0 {
			continue
		}
		g.MustAddEdge(u, v, ws[k])
		k++
	}
	return g
}

// Caterpillar returns a path of length spine with legs leaves attached to
// every spine node — a high-diameter tree family with degree spikes.
func Caterpillar(spine, legs int, seed int64) *Graph {
	n := spine * (1 + legs)
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(n, rng)
	k := 0
	for i := 0; i+1 < spine; i++ {
		g.MustAddEdge(i, i+1, ws[k])
		k++
	}
	leaf := spine
	for i := 0; i < spine; i++ {
		for j := 0; j < legs; j++ {
			g.MustAddEdge(i, leaf, ws[k])
			k++
			leaf++
		}
	}
	return g
}

// Lollipop returns a clique of size k attached to a path of length n-k:
// a classic hard instance mixing dense and sparse regions.
func Lollipop(n, k int, seed int64) *Graph {
	if k < 3 || k > n {
		panic("graph: lollipop needs 3 <= k <= n")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n, scrambledIDs(n, rng))
	ws := distinctWeights(k*k+n, rng)
	w := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(i, j, ws[w])
			w++
		}
	}
	for i := k - 1; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, ws[w])
		w++
	}
	return g
}

// WithDuplicateWeights returns a copy of g whose weights are collapsed
// modulo k, deliberately creating ties; used to exercise the ω′ transform.
func WithDuplicateWeights(g *Graph, k int) *Graph {
	c := g.Clone()
	for i := range c.edges {
		c.edges[i].W = Weight(int64(c.edges[i].W)%int64(k) + 1)
	}
	return c
}
