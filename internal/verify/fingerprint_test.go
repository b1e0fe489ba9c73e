package verify

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ssmst/internal/graph"
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
		fmt.Fprintf(h, "l%d %v;", v, l.Labels[v])
	}
	return h.Sum64()
}

// TestInstanceFingerprints pins instance generation and marking byte for
// byte: every campaign family at two sizes and two seeds, marked, must hash
// to the recorded value. A rewrite of a generator, SYNC_MST, hierarchy.Build,
// the partitioner or a label marker may not move any of them:
// TestDetectionRoundsGolden and the benchmark's fixed graphs depend on the
// exact instances.
func TestInstanceFingerprints(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
		seed   int64
		want   uint64
	}{
		{"random", 256, 1, 0xd8ea7dcce5e0139b},
		{"random", 256, 2, 0xdb51df5789c406cd},
		{"random", 1024, 1, 0xab74ba93e8303434},
		{"random", 1024, 2, 0xe3b797ae0dcf1557},
		{"powerlaw", 256, 1, 0xd8cc8ce580742e66},
		{"powerlaw", 256, 2, 0xdcd2ce8f50351432},
		{"powerlaw", 1024, 1, 0x261d19e3a8421f2f},
		{"powerlaw", 1024, 2, 0x4adae721d64c63c7},
		{"geometric", 256, 1, 0x245770740b4580d7},
		{"geometric", 256, 2, 0x28f914f939575f81},
		{"geometric", 1024, 1, 0x17968504c3f81b8f},
		{"geometric", 1024, 2, 0x042b74ea76b05bb0},
		{"highgirth", 256, 1, 0xc7601e4a2d2e630f},
		{"highgirth", 256, 2, 0xbee859555215e59e},
		{"highgirth", 1024, 1, 0x1bc96561e972ab96},
		{"highgirth", 1024, 2, 0xdc7cb82219246628},
	} {
		g, err := graph.ByFamily(tc.family, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Mark(g)
		if err != nil {
			t.Fatalf("%s n=%d seed=%d: %v", tc.family, tc.n, tc.seed, err)
		}
		if got := fingerprint(l); got != tc.want {
			t.Errorf("%s n=%d seed=%d: fingerprint %#x, want %#x", tc.family, tc.n, tc.seed, got, tc.want)
		}
	}
}
