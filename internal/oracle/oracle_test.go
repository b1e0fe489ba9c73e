package oracle

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ssmst/internal/graph"
)

// TestAgreesWithIsMSTOnMSTs: both oracles accept the true MST of every
// campaign family, agreeing with the repository's reference IsMST.
func TestAgreesWithIsMSTOnMSTs(t *testing.T) {
	const seed = int64(11)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := graph.Kruskal(g, graph.ByWeight(g))
		if err != nil {
			t.Fatalf("family %s seed %d: %v", fam, seed, err)
		}
		if !graph.IsMST(g, mst, graph.ByWeight(g)) {
			t.Fatalf("family %s seed %d: reference oracle rejects Kruskal output", fam, seed)
		}
		for name, verdict := range map[string]Verdict{
			"tlight": TLightness(g, mst, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, mst, graph.ByWeight(g)),
		} {
			if !verdict.Spanning || !verdict.IsMST {
				t.Errorf("family %s seed %d: %s rejects the MST: %+v", fam, seed, name, verdict)
			}
		}
		if ok, err := CrossCheck(g, mst, graph.ByWeight(g)); err != nil || !ok {
			t.Errorf("family %s seed %d: cross-check: ok=%v err=%v", fam, seed, ok, err)
		}
	}
}

// TestRejectsCorruptedTrees: for every family and corruption density k the
// oracles reject the corrupted tree, agree with IsMST, and produce valid
// witnesses.
func TestRejectsCorruptedTrees(t *testing.T) {
	const seed = int64(23)
	for _, fam := range graph.Families() {
		g, err := graph.ByFamily(fam, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 16} {
			tree, err := gen.Generate(k, seed+int64(k))
			if err != nil {
				t.Fatalf("family %s k=%d seed %d: %v", fam, k, seed, err)
			}
			if !graph.IsSpanningTree(g, tree) {
				t.Fatalf("family %s k=%d seed %d: corrupted output is not spanning", fam, k, seed)
			}
			if graph.IsMST(g, tree, graph.ByWeight(g)) {
				t.Fatalf("family %s k=%d seed %d: corrupted tree is still minimal", fam, k, seed)
			}
			tl := TLightness(g, tree, graph.ByWeight(g))
			uf := CycleUnionFind(g, tree, graph.ByWeight(g))
			if tl.IsMST || uf.IsMST {
				t.Fatalf("family %s k=%d seed %d: oracle accepted a corrupted tree (tlight=%v uf=%v)",
					fam, k, seed, tl.IsMST, uf.IsMST)
			}
			// Witness validity: the T-light edge must be strictly lighter
			// than the claimed heaviest path edge, and both must have the
			// right tree membership.
			inTree := make(map[int]bool, len(tree))
			for _, e := range tree {
				inTree[e] = true
			}
			if inTree[tl.ViolatingEdge] || !inTree[tl.TreeEdge] {
				t.Errorf("family %s k=%d seed %d: tlight witness has wrong membership: %+v", fam, k, seed, tl)
			}
			if !graph.ByWeight(g)(tl.ViolatingEdge, tl.TreeEdge) {
				t.Errorf("family %s k=%d seed %d: tlight witness not lighter than its path edge: %+v", fam, k, seed, tl)
			}
			if inTree[uf.ViolatingEdge] {
				t.Errorf("family %s k=%d seed %d: union-find witness is a tree edge: %+v", fam, k, seed, uf)
			}
			if ok, err := CrossCheck(g, tree, graph.ByWeight(g)); err != nil || ok {
				t.Errorf("family %s k=%d seed %d: cross-check: ok=%v err=%v", fam, k, seed, ok, err)
			}
		}
	}
}

// TestModifiedOrderDuplicateWeights: under duplicate raw weights the ω′
// order keeps the oracles sound — they must accept the candidate tree iff
// the reference IsMST does, for both a Kruskal tree and a corrupted one —
// and TLightness returns the naive reference's Verdict, witness included.
func TestModifiedOrderDuplicateWeights(t *testing.T) {
	const seed = int64(31)
	g0 := graph.RandomConnected(48, 120, seed)
	g := graph.WithDuplicateWeights(g0, 5)
	for _, candidate := range [][]int{
		mustKruskal(t, g, graph.ModifiedOrder(g, func(int) bool { return false })),
		mustKruskal(t, g0, graph.ByWeight(g0)), // MST of g0, generally not of g
	} {
		inTree := make(map[int]bool, len(candidate))
		for _, e := range candidate {
			inTree[e] = true
		}
		less := graph.ModifiedOrder(g, func(e int) bool { return inTree[e] })
		want := graph.IsMST(g, candidate, less)
		got, err := CrossCheck(g, candidate, less)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: oracles say %v, reference says %v", seed, got, want)
		}
		if tl, naive := TLightness(g, candidate, less), tlightnessNaive(g, candidate, less); tl != naive {
			t.Errorf("seed %d: TLightness %+v, naive %+v", seed, tl, naive)
		}
	}
}

func mustKruskal(t *testing.T, g *graph.Graph, less graph.EdgeOrder) []int {
	t.Helper()
	tree, err := graph.Kruskal(g, less)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRejectsNonSpanningInput: garbage edge sets (wrong size, a cycle, an
// edge id outside [0, M)) are rejected as non-spanning by both oracles and
// the reference IsMST, without witnesses and without panicking. CrossCheck
// reports an out-of-range id as an error naming it.
func TestRejectsNonSpanningInput(t *testing.T) {
	g := graph.RandomConnected(16, 40, 3)
	mst := mustKruskal(t, g, graph.ByWeight(g))
	short := mst[:len(mst)-1]
	cyclic := append(append([]int(nil), short...), nonTreeEdge(g, mst))
	for name, bad := range map[string][]int{
		"short":        short,
		"cyclic-maybe": cyclic,
		"negative-id":  append(append([]int(nil), short...), -1),
		"id-past-m":    append(append([]int(nil), short...), g.M()),
	} {
		for oname, verdict := range map[string]Verdict{
			"tlight": TLightness(g, bad, graph.ByWeight(g)),
			"uf":     CycleUnionFind(g, bad, graph.ByWeight(g)),
		} {
			if verdict.IsMST || verdict.Spanning || verdict.ViolatingEdge != -1 || verdict.TreeEdge != -1 {
				t.Errorf("%s/%s: non-tree edge set not rejected as non-spanning: %+v", name, oname, verdict)
			}
		}
		if graph.IsMST(g, bad, graph.ByWeight(g)) {
			t.Errorf("%s: reference IsMST accepted a non-tree edge set", name)
		}
		ok, err := CrossCheck(g, bad, graph.ByWeight(g))
		if ok {
			t.Errorf("%s: cross-check accepted a non-tree edge set", name)
		}
		if id := bad[len(bad)-1]; id < 0 || id >= g.M() {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(id)) {
				t.Errorf("%s: cross-check error %v does not name bad id %d", name, err, id)
			}
		} else if err != nil {
			t.Errorf("%s: cross-check: %v", name, err)
		}
	}
}

func nonTreeEdge(g *graph.Graph, tree []int) int {
	inTree := make(map[int]bool, len(tree))
	for _, e := range tree {
		inTree[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if !inTree[e] {
			return e
		}
	}
	return -1
}

// tlightnessNaive is the O(m·n) reference TLightness must match verdict
// and witness for witness: per non-tree edge in ascending id, a DFS over the
// tree from one endpoint tracks the heaviest edge on the path to the other.
func tlightnessNaive(g *graph.Graph, treeEdges []int, less graph.EdgeOrder) Verdict {
	v := Verdict{ViolatingEdge: -1, TreeEdge: -1}
	if !graph.IsSpanningTree(g, treeEdges) {
		return v
	}
	v.Spanning = true
	n := g.N()
	inTree := make([]bool, g.M())
	adj := make([][]graph.Half, n)
	for _, e := range treeEdges {
		inTree[e] = true
		ed := g.Edge(e)
		adj[ed.U] = append(adj[ed.U], graph.Half{Peer: ed.V, Edge: e})
		adj[ed.V] = append(adj[ed.V], graph.Half{Peer: ed.U, Edge: e})
	}
	// Generation-stamped visited marks: the buffers serve all m-n+1 searches.
	visited := make([]int, n)
	for i := range visited {
		visited[i] = -1
	}
	heaviest := make([]int, n) // heaviest tree edge on the path from the DFS root
	stack := make([]int, 0, n)
	for e := 0; e < g.M(); e++ {
		if inTree[e] {
			continue
		}
		ed := g.Edge(e)
		stack = append(stack[:0], ed.U)
		visited[ed.U] = e
		heaviest[ed.U] = -1
		found := false
		for len(stack) > 0 && !found {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range adj[x] {
				if visited[h.Peer] == e {
					continue
				}
				visited[h.Peer] = e
				hv := heaviest[x]
				if hv < 0 || less(hv, h.Edge) {
					hv = h.Edge
				}
				heaviest[h.Peer] = hv
				if h.Peer == ed.V {
					found = true
					break
				}
				stack = append(stack, h.Peer)
			}
		}
		if found && less(e, heaviest[ed.V]) {
			v.ViolatingEdge, v.TreeEdge = e, heaviest[ed.V]
			return v
		}
	}
	v.IsMST = true
	return v
}

// TestTLightnessMatchesNaive: the offline path-max TLightness returns the
// naive reference's Verdict, witness included, on every family and size for
// the MST and for k-corrupted trees. TestModifiedOrderDuplicateWeights
// covers the ω′ order.
func TestTLightnessMatchesNaive(t *testing.T) {
	const seed = int64(41)
	compared := 0
	for _, fam := range graph.Families() {
		for _, n := range []int{8, 64, 257, 1024} {
			g, err := graph.ByFamily(fam, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := graph.NewCorruptedMSTGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 4, 16} {
				tree, err := gen.Generate(k, seed+int64(k))
				if err != nil {
					// Small graphs can saturate before k edits.
					t.Logf("family %s n=%d k=%d: %v", fam, n, k, err)
					continue
				}
				less := graph.ByWeight(g)
				if got, want := TLightness(g, tree, less), tlightnessNaive(g, tree, less); got != want {
					t.Errorf("family %s n=%d k=%d seed %d: TLightness %+v, naive %+v", fam, n, k, seed, got, want)
				}
				compared++
			}
		}
	}
	if compared < 4*4*3 { // saturation may skip a few small cells, not the table
		t.Errorf("only %d cells compared", compared)
	}
}

// FuzzTLightness: bytes decode to a family (byte 0), n ≤ 256 (byte 1, plus
// one), a corruption density k ≤ 16 (byte 2; 0 is the MST) and a graph seed
// (bytes 3–10, little-endian); TLightness must equal the naive reference and
// agree with CycleUnionFind.
func FuzzTLightness(f *testing.F) {
	for fam := range graph.Families() {
		f.Add([]byte{byte(fam), 63, 0, 1})
		f.Add([]byte{byte(fam), 200, 4, 7, 3})
		f.Add([]byte{byte(fam), 31, 16, 9})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cell [11]byte
		copy(cell[:], data)
		fam := graph.Families()[int(cell[0])%len(graph.Families())]
		n, k := int(cell[1])+1, int(cell[2])%17
		seed := int64(binary.LittleEndian.Uint64(cell[3:]))
		g, err := graph.ByFamily(fam, n, seed)
		if err != nil {
			return // n below the family's minimum
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := gen.Generate(k, seed)
		if err != nil {
			return // saturated before k edits
		}
		less := graph.ByWeight(g)
		got, want := TLightness(g, tree, less), tlightnessNaive(g, tree, less)
		if got != want {
			t.Fatalf("family %s n=%d k=%d seed %d: TLightness %+v, naive %+v", fam, n, k, seed, got, want)
		}
		if uf := CycleUnionFind(g, tree, less); uf.IsMST != got.IsMST || uf.Spanning != got.Spanning {
			t.Fatalf("family %s n=%d k=%d seed %d: TLightness %+v, union-find %+v", fam, n, k, seed, got, uf)
		}
	})
}

// TestCrossCheckAtScale: on every family at n=65536 the cross-check
// accepts the MST and rejects a k=16 corrupted tree, and the T-lightness
// witness is valid.
func TestCrossCheckAtScale(t *testing.T) {
	const n, seed = 65536, int64(5)
	for name, g := range map[string]*graph.Graph{
		"random":    graph.RandomConnected(n, 3*n, seed),
		"powerlaw":  graph.PowerLaw(n, 3, seed),
		"geometric": graph.Geometric(n, seed),
		"highgirth": graph.HighGirth(n, 2*n, 6, seed),
	} {
		less := graph.ByWeight(g)
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := CrossCheck(g, gen.MST(), less); err != nil || !ok {
			t.Errorf("%s seed %d: cross-check on the MST: ok=%v err=%v", name, seed, ok, err)
		}
		tree, err := gen.Generate(16, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := CrossCheck(g, tree, less); err != nil || ok {
			t.Errorf("%s seed %d: cross-check on a k=16 tree: ok=%v err=%v", name, seed, ok, err)
		}
		if v := TLightness(g, tree, less); !validWitness(g, tree, less, v) {
			t.Errorf("%s seed %d: invalid T-lightness witness %+v", name, seed, v)
		}
	}
}

// validWitness reports whether v.ViolatingEdge is a non-tree edge lighter
// than v.TreeEdge and v.TreeEdge lies on its tree path, found by one O(n)
// walk from one endpoint's root-ward path to the other's.
func validWitness(g *graph.Graph, tree []int, less graph.EdgeOrder, v Verdict) bool {
	if v.ViolatingEdge < 0 || v.TreeEdge < 0 || !less(v.ViolatingEdge, v.TreeEdge) {
		return false
	}
	adj := make([][]graph.Half, g.N())
	for _, e := range tree {
		if e == v.ViolatingEdge {
			return false
		}
		ed := g.Edge(e)
		adj[ed.U] = append(adj[ed.U], graph.Half{Peer: ed.V, Edge: e})
		adj[ed.V] = append(adj[ed.V], graph.Half{Peer: ed.U, Edge: e})
	}
	// Root the tree at the violating edge's U; walk up from its V.
	ed := g.Edge(v.ViolatingEdge)
	parentEdge := make([]int, g.N())
	for i := range parentEdge {
		parentEdge[i] = -2
	}
	parentEdge[ed.U] = -1
	stack := []int{ed.U}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range adj[x] {
			if parentEdge[h.Peer] == -2 {
				parentEdge[h.Peer] = h.Edge
				stack = append(stack, h.Peer)
			}
		}
	}
	for x := ed.V; x != ed.U; {
		pe := parentEdge[x]
		if pe == v.TreeEdge {
			return true
		}
		x = g.Other(pe, x)
	}
	return false
}

// BenchmarkOracles is the centralized-oracle cost benchmark on
// RandomConnected(n, 3n) MSTs: each oracle alone and the full double-oracle
// audit, plus the naive T-lightness reference at n=1024 only.
func BenchmarkOracles(b *testing.B) {
	for _, n := range []int{1024, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.RandomConnected(n, 3*n, 1)
			mst, err := graph.Kruskal(g, graph.ByWeight(g))
			if err != nil {
				b.Fatal(err)
			}
			less := graph.ByWeight(g)
			type oracle func(*graph.Graph, []int, graph.EdgeOrder) Verdict
			names, oracles := []string{"tlightness", "unionfind"}, []oracle{TLightness, CycleUnionFind}
			if n == 1024 {
				names, oracles = append(names, "naive"), append(oracles, tlightnessNaive)
			}
			for i, run := range oracles {
				b.Run(names[i], func(b *testing.B) {
					for b.Loop() {
						run(g, mst, less)
					}
				})
			}
			b.Run("crosscheck", func(b *testing.B) {
				for b.Loop() {
					if _, err := CrossCheck(g, mst, less); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
