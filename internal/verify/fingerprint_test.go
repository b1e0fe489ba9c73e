package verify

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/train"
)

// fingerprint hashes a marked instance with FNV-64a: the edge list with
// weights, the tree's parent array, every hierarchy fragment (sorted nodes,
// level, root, candidate edge, ω) and every node's label block.
func fingerprint(l *Labeled) uint64 {
	h := fnv.New64a()
	g := l.G
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(h, "e%d %d %d %d;", e, ed.U, ed.V, ed.W)
	}
	for v, p := range l.Tree.Parent {
		fmt.Fprintf(h, "p%d %d;", v, p)
	}
	for i := range l.H.Frags {
		f := &l.H.Frags[i]
		fmt.Fprintf(h, "f%d %v %d %d %d %d;", i, f.Nodes, f.Level, f.Root, f.Cand, f.MinOutW)
	}
	for v := range l.Labels {
		fmt.Fprintf(h, "l%d %s;", v, labelForm(&l.Labels[v]))
	}
	return h.Sum64()
}

// labelForm renders a label block in the canonical form the pins hash: the
// strings' byte form (hierarchy.FormatStrings), then each train's labels
// with its stored pieces in order — laid out as %v printed the block when
// its strings and pieces were slices, so the recorded hashes keep their
// values.
func labelForm(nl *NodeLabels) string {
	roots, endP, parents, orEndP := hierarchy.FormatStrings(&nl.HS)
	return fmt.Sprintf("{%v %v {%v %v %v %v} {%s %s}}", nl.SP, nl.Size,
		[]byte(roots), []byte(endP), flagForm(parents), flagForm(orEndP),
		trainForm(&nl.Train.Top), trainForm(&nl.Train.Bottom))
}

// flagForm turns a '0'/'1' string back into the []bool it rendered.
func flagForm(s string) []bool {
	out := make([]bool, len(s))
	for i := range s {
		out[i] = s[i] == '1'
	}
	return out
}

func trainForm(l *train.Labels) string {
	return fmt.Sprintf("{%v %v %v %v %v %v %v %v}",
		l.PartRootID, l.PosStart, l.Cnt, l.SubCnt, l.K, l.Depth, l.DiamBound, l.Stored())
}

// partsFingerprint hashes what fingerprint leaves out: the marker's
// simulated construction time and every partition part (kind, root, nodes,
// DFS order, depth and fragment list).
func partsFingerprint(l *Labeled) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "t%d;", l.ConstructionTime)
	for i := range l.Parts.Parts {
		p := &l.Parts.Parts[i]
		fmt.Fprintf(h, "q%d %v %d %v %v %d %v;", i, p.Kind, p.Root, p.Nodes, p.DFS, p.Depth, p.Frags)
	}
	return h.Sum64()
}

// markPins are Mark's recorded fingerprint and partsFingerprint for every
// campaign family at two sizes and two seeds.
var markPins = []struct {
	family      string
	n           int
	seed        int64
	want, parts uint64
}{
	{"random", 256, 1, 0xd8ea7dcce5e0139b, 0xafba0ad1c488ac0c},
	{"random", 256, 2, 0xdb51df5789c406cd, 0x4f62e5f23e0c98c7},
	{"random", 1024, 1, 0xab74ba93e8303434, 0xacef89404f052eac},
	{"random", 1024, 2, 0xe3b797ae0dcf1557, 0x75161b4e24c96337},
	{"powerlaw", 256, 1, 0xd8cc8ce580742e66, 0xc904a0df55457369},
	{"powerlaw", 256, 2, 0xdcd2ce8f50351432, 0x6a068e0d9ed8a63e},
	{"powerlaw", 1024, 1, 0x261d19e3a8421f2f, 0x6938d718d5ef86bf},
	{"powerlaw", 1024, 2, 0x4adae721d64c63c7, 0x77669bc1a76e9851},
	{"geometric", 256, 1, 0x245770740b4580d7, 0xa0963fb48ea3800d},
	{"geometric", 256, 2, 0x28f914f939575f81, 0xf8e70188c3abeeb6},
	{"geometric", 1024, 1, 0x17968504c3f81b8f, 0xbf51378cff617afa},
	{"geometric", 1024, 2, 0x042b74ea76b05bb0, 0x63437eaf849b2c5e},
	{"highgirth", 256, 1, 0xc7601e4a2d2e630f, 0x41527da83c9571e6},
	{"highgirth", 256, 2, 0xbee859555215e59e, 0x9397a15b272bd671},
	{"highgirth", 1024, 1, 0x1bc96561e972ab96, 0x50469f3d4c466b36},
	{"highgirth", 1024, 2, 0xdc7cb82219246628, 0x60dea1d5257eab50},
}

// checkPins reports a marked instance whose fingerprints differ from the
// recorded ones.
func checkPins(t *testing.T, name string, l *Labeled, want, parts uint64) {
	t.Helper()
	if got := fingerprint(l); got != want {
		t.Errorf("%s: fingerprint %#x, want %#x", name, got, want)
	}
	if got := partsFingerprint(l); got != parts {
		t.Errorf("%s: parts fingerprint %#x, want %#x", name, got, parts)
	}
}

// TestInstanceFingerprints pins instance generation and marking byte for
// byte: every campaign family at two sizes and two seeds, marked, must hash
// to the recorded values. A rewrite of a generator, SYNC_MST, hierarchy.Build,
// the partitioner or a label marker may not move any of them:
// TestDetectionRoundsGolden and the benchmark's fixed graphs depend on the
// exact instances.
func TestInstanceFingerprints(t *testing.T) {
	for _, tc := range markPins {
		g, err := graph.ByFamily(tc.family, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s n=%d seed=%d", tc.family, tc.n, tc.seed)
		l, err := Mark(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPins(t, name, l, tc.want, tc.parts)
	}
}

// instanceHash hashes a bare instance with FNV-64a: every node's identity
// and the edge list with weights.
func instanceHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "i%d %d;", v, g.ID(v))
	}
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(h, "e%d %d %d %d;", e, ed.U, ed.V, ed.W)
	}
	return h.Sum64()
}

// treeHash hashes a spanning tree's edge indices with FNV-64a.
func treeHash(edges []int) uint64 {
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "t%d;", e)
	}
	return h.Sum64()
}

// TestBenchInstancePins pins the graphs the benchmark runs on, which the
// n ≤ 1024 pins above do not reach: the eight oracle-campaign graphs (every
// family at n=4096, sub-seeds 0 and 1 of instance seed 1) and geometric and
// highgirth at n=16384. A generator rewrite may not move any of them. On
// each campaign graph it also pins the trees 16 and 64 cycle edits away
// from the MST that oracle-campaign measures at --seed 1: cell c = 2·family
// + sub-seed, edit count j, generator seed SubSeed(1, 1, c, j) — and
// MarkTree's fingerprint and partsFingerprint on each of those trees (no ω
// override), which oracle-campaign marks in every episode.
func TestBenchInstancePins(t *testing.T) {
	const campaignN = 4096
	campaign := [][2]uint64{
		{0x733a8362d34e3c6d, 0x9ac6ad9c87669aac}, // random
		{0x3bf1527779bc46b7, 0x27022ea30448a651}, // powerlaw
		{0x58ff3946122ba8f2, 0xacb52d93d0cad70f}, // geometric
		{0xf9ee7efc57411f5f, 0x8630aa79b4a737c2}, // highgirth
	}
	ks := []int{16, 64}
	corrupted := [][2][2]uint64{ // [family][sub-seed][k]
		{{0x8331c9ec3a5a6f53, 0x4c9f7053be5904c0}, {0x33d04e027878b985, 0x6f41b31aa2566d34}}, // random
		{{0x20b81e2d8373bca6, 0xd39d20419a0ea12f}, {0xa354163b42f69053, 0x795184a07a7c54ac}}, // powerlaw
		{{0x8454d8c8a18e1eb5, 0x3d049f6a89180ab0}, {0x3315f214aaee7ab4, 0x321366e3d1a0009f}}, // geometric
		{{0x4cabc5a7782766d8, 0x57115cf2887bc883}, {0xa766572a4557246a, 0xccd9b4f5e32dd6ff}}, // highgirth
	}
	marked := [][2][2][2]uint64{ // [family][sub-seed][k]{fingerprint, partsFingerprint}
		{{{0x1a88caf434c269eb, 0x00cefe259b09005d}, {0xca2745bac9749adb, 0x1c169d900ca3a743}}, {{0x1ef997a66dfd309b, 0x5824d21deb859936}, {0x715a6a61231dde75, 0x607185c8fbcb9e34}}}, // random
		{{{0x71afe7185d9ee875, 0xa10178b1e5e6e961}, {0x74e438d18ebf43c8, 0x927a33496ab9c795}}, {{0x0a71c8150b711560, 0x174983c9bd00406c}, {0x69a2e521f48224e3, 0x404f6520a0d82494}}}, // powerlaw
		{{{0xfcda6ac38fde07be, 0x23b0588818f662db}, {0x74a57eb940007317, 0xcbafeb18aa51669a}}, {{0x8193ac0ca6903879, 0x35ee54d0a072c325}, {0x462663492ef0517a, 0x5ff7b9ca3fe2db99}}}, // geometric
		{{{0x4a5086cd81877a3b, 0xf17e1c97587c4c7e}, {0xba1acca394573255, 0xfcc56465f2a55316}}, {{0xe3303186a1eeaf08, 0x310236128f894273}, {0x3190659a3a6eda7c, 0x292018d2f4cb9e0d}}}, // highgirth
	}
	for fi, fam := range graph.Families() {
		for si, want := range campaign[fi] {
			g, err := graph.ByFamily(fam, campaignN, SubSeed(1, campaignN, int64(fi), int64(si)))
			if err != nil {
				t.Fatal(err)
			}
			if got := instanceHash(g); got != want {
				t.Errorf("%s n=%d sub-seed %d: hash %#x, want %#x", fam, campaignN, si, got, want)
			}
			gen, err := graph.NewCorruptedMSTGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			cell := int64(2*fi + si)
			for j, k := range ks {
				tree, err := gen.Generate(k, SubSeed(1, 1, cell, int64(j)))
				if err != nil {
					t.Fatal(err)
				}
				if got := treeHash(tree); got != corrupted[fi][si][j] {
					t.Errorf("%s n=%d sub-seed %d k=%d: corrupted-tree hash %#x, want %#x", fam, campaignN, si, k, got, corrupted[fi][si][j])
				}
				l, err := MarkTree(g, tree, false)
				if err != nil {
					t.Fatal(err)
				}
				want := marked[fi][si][j]
				checkPins(t, fmt.Sprintf("%s n=%d sub-seed %d k=%d MarkTree", fam, campaignN, si, k), l, want[0], want[1])
			}
		}
	}
	for _, tc := range []struct {
		family string
		want   uint64
	}{
		{"geometric", 0x0c2f084917d2d449},
		{"highgirth", 0xa7536f337617ebbf},
	} {
		g, err := graph.ByFamily(tc.family, 16384, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := instanceHash(g); got != tc.want {
			t.Errorf("%s n=16384 seed 1: hash %#x, want %#x", tc.family, got, tc.want)
		}
	}
}

// TestMarkTreeFingerprints pins MarkTree the same way at n=256, with and
// without the ω override: on the MST it must reproduce Mark's pins, and on
// a tree four cycle edits away from the MST the recorded values.
func TestMarkTreeFingerprints(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		family string
		seed   int64
		want   [2]uint64 // fingerprint without and with the ω override
		parts  uint64
	}{
		{"random", 1, [2]uint64{0xbaad9be23a401e26, 0x47fd8011cb8f52f3}, 0xe272611eeb56cc9e},
		{"random", 2, [2]uint64{0x2e7a0a134211762e, 0x315f474707fcd82c}, 0x1ad8c162b9798a33},
		{"powerlaw", 1, [2]uint64{0x4956cbca20829504, 0xfb0fccd145a0f01c}, 0xabf6abf766579212},
		{"powerlaw", 2, [2]uint64{0xc5fc485f8b792206, 0x48d0804eb9885747}, 0x8dbe8fbfbf3e45de},
		{"geometric", 1, [2]uint64{0x356e48eecefbe0c5, 0xd9809e810d898031}, 0x1520b4c3cfba499b},
		{"geometric", 2, [2]uint64{0xdc055895957ac28f, 0x73bee81a9c41573b}, 0x7d9db929051fb5cd},
		{"highgirth", 1, [2]uint64{0xa186b61253c87093, 0x6e465c6368f6ad55}, 0x73a5abfd67aa224c},
		{"highgirth", 2, [2]uint64{0xc69d67071b7ec522, 0x552d496f07172a4d}, 0xb60b90fb184165b1},
	} {
		g, err := graph.ByFamily(tc.family, n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			t.Fatal(err)
		}
		corrupted, err := gen.Generate(4, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		mst := markPins[0]
		for _, p := range markPins {
			if p.family == tc.family && p.n == n && p.seed == tc.seed {
				mst = p
			}
		}
		for i, omega := range []bool{false, true} {
			for _, c := range []struct {
				tree        string
				edges       []int
				want, parts uint64
			}{
				{"MST", gen.MST(), mst.want, mst.parts},
				{"corrupted", corrupted, tc.want[i], tc.parts},
			} {
				name := fmt.Sprintf("%s seed=%d %s ω override=%v", tc.family, tc.seed, c.tree, omega)
				l, err := MarkTree(g, c.edges, omega)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkPins(t, name, l, c.want, c.parts)
			}
		}
	}
}

// TestMinOutWeightsMatchOracle checks every fragment's ω(F) against the
// centralized oracle graph.FragmentMinOutEdge, with membership taken from
// the fragment's node list: Mark and MarkTree (a corrupted tree, no ω
// override) on every family at n ∈ {256, 1024}. The whole tree T carries
// NoOutWeight and has no outgoing edge.
func TestMinOutWeightsMatchOracle(t *testing.T) {
	for _, family := range graph.Families() {
		for _, n := range []int{256, 1024} {
			g, err := graph.ByFamily(family, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := graph.NewCorruptedMSTGenerator(g)
			if err != nil {
				t.Fatal(err)
			}
			corrupted, err := gen.Generate(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			marked, err := Mark(g)
			if err != nil {
				t.Fatal(err)
			}
			onTree, err := MarkTree(g, corrupted, false)
			if err != nil {
				t.Fatal(err)
			}
			member := make([]bool, n)
			inFrag := func(v int) bool { return member[v] }
			for _, l := range []*Labeled{marked, onTree} {
				for i := range l.H.Frags {
					f := &l.H.Frags[i]
					for _, v := range f.Nodes {
						member[v] = true
					}
					e := graph.FragmentMinOutEdge(g, inFrag, graph.ByWeight(g))
					for _, v := range f.Nodes {
						member[v] = false
					}
					switch {
					case e < 0 && f.MinOutW != hierarchy.NoOutWeight:
						t.Errorf("%s n=%d fragment %d: ω=%d, but the oracle finds no outgoing edge", family, n, i, f.MinOutW)
					case e >= 0 && f.MinOutW != g.Edge(e).W:
						t.Errorf("%s n=%d fragment %d: ω=%d, oracle minimum outgoing weight %d", family, n, i, f.MinOutW, g.Edge(e).W)
					}
				}
			}
		}
	}
}
