package verify

import (
	"math/rand"

	"ssmst/internal/graph"
)

// This file is the correlated-fault scenario layer of the adversarial
// campaign subsystem: regional outages (every node in a BFS ball corrupted
// at once), multi-victim fault storms, and churn storms layered on the
// topology-mutation menu. Every scenario derives its randomness from an
// explicit seed through SubSeed — no shared *rand.Rand is threaded through
// helpers whose call order could drift — so a campaign counterexample
// replays byte-for-byte from the one recorded seed.

// SubSeed derives an independent RNG seed from a single recorded campaign
// seed and a stream path (splitmix64 mixing). Distinct paths give
// decorrelated streams; the same (seed, path) always gives the same stream.
// This is the only sanctioned way campaign code branches randomness:
// deriving per-purpose seeds keeps each consumer's draw sequence fixed even
// when another consumer changes how much randomness it uses.
func SubSeed(seed int64, path ...int64) int64 {
	// The running state is re-mixed before each path element is folded in,
	// so the chain is asymmetric: SubSeed(a, b) != SubSeed(b, a) and path
	// order matters.
	z := splitmix64(uint64(seed))
	for _, p := range path {
		z = splitmix64(splitmix64(z) + uint64(p))
	}
	return int64(z)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// StaticFaultKinds is the persistent (label/structure) slice of the fault
// menu — every kind except the transient FaultTrainDyn, whose corruption
// washes out of the dynamic state and is excluded from must-detect
// accounting.
func StaticFaultKinds() []FaultKind {
	return []FaultKind{
		FaultStoredPieceW, FaultStoredPieceID, FaultRootsEntry,
		FaultEndPEntry, FaultSPDist, FaultSizeN, FaultComponent,
	}
}

// ApplyRegionalOutage corrupts every node in the BFS ball of the given
// radius around a random center — the correlated regional-failure scenario
// (a rack, a district). Each victim receives a static-layer fault; kinds
// that are no-ops for the victim's current state are skipped in favour of
// the next kind (FaultSPDist applies everywhere, so every reachable victim
// is corrupted). Deterministic in (engine state, seed); returns the center
// and the corrupted nodes.
func (r *Runner) ApplyRegionalOutage(radius int, seed int64) (center int, victims []int) {
	return RegionalOutage(r.Labeled.G, radius, seed, r.InjectKind)
}

// RegionalOutage is the body of both runners' ApplyRegionalOutage. It draws
// a center from one RNG stream derived from (seed, radius), then visits the
// BFS ball of the given radius in node order and offers each node the
// static fault kinds, starting at a random one, until inject reports that
// the node changed. inject draws its fault parameters from the same stream,
// so the victims are a function of the seed and the nodes' states alone.
func RegionalOutage(g *graph.Graph, radius int, seed int64, inject func(v int, kind FaultKind, rng *rand.Rand) bool) (center int, victims []int) {
	rng := rand.New(rand.NewSource(SubSeed(seed, int64(radius))))
	center = rng.Intn(g.N())
	dist := g.BFSDistances(center)
	kinds := StaticFaultKinds()
	for v := 0; v < g.N(); v++ {
		if dist[v] < 0 || dist[v] > radius {
			continue
		}
		start := rng.Intn(len(kinds))
		for i := range kinds {
			if inject(v, kinds[(start+i)%len(kinds)], rng) {
				victims = append(victims, v)
				break
			}
		}
	}
	return center, victims
}

// ApplyFaultStorm injects one storm wave: up to m static-layer faults at
// distinct random victims, kinds drawn uniformly (no-op draws are retried
// within a bounded budget). Multi-round storms call it once per round with
// per-wave derived seeds. Returns the victims actually corrupted.
func (r *Runner) ApplyFaultStorm(m int, seed int64) (victims []int) {
	rng := rand.New(rand.NewSource(SubSeed(seed, int64(m))))
	g := r.Labeled.G
	kinds := StaticFaultKinds()
	hit := make(map[int]bool, m)
	for attempts := 0; len(victims) < m && attempts < 16*m+64; attempts++ {
		v := rng.Intn(g.N())
		if hit[v] {
			continue
		}
		if r.InjectKind(v, kinds[rng.Intn(len(kinds))], rng) {
			hit[v] = true
			victims = append(victims, v)
		}
	}
	return victims
}

// ApplyChurnStorm applies one storm wave of topology churn: count events
// with kinds drawn uniformly from the given menu, each planned against the
// verified tree and applied through the engine's mutation path. Events
// whose kind is momentarily unavailable on the instance are skipped, not
// retried as a different kind — the storm's kind mix is part of the
// recorded scenario. Returns the events actually applied.
func (r *Runner) ApplyChurnStorm(count int, kinds []ChurnKind, seed int64) []ChurnEvent {
	rng := rand.New(rand.NewSource(SubSeed(seed, int64(count))))
	events := make([]ChurnEvent, 0, count)
	for i := 0; i < count; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		if ev, ok := r.ApplyChurn(kind, rng); ok {
			events = append(events, ev)
		}
	}
	return events
}

// TreeEdges resolves the verified tree's edge set against the *current*
// graph. Churn compacts edge indices, so the Labeled.Tree's recorded
// indices go stale under mutation while its parent pointers stay
// authoritative (tree links are never cut by the churn planner); oracle
// cross-checks after a storm must use this resolution, never the stale
// index set.
func (r *Runner) TreeEdges() []int {
	g := r.Eng.G()
	parent := r.Labeled.Tree.Parent
	edges := make([]int, 0, max(g.N()-1, 0))
	for v := range parent {
		if parent[v] < 0 {
			continue
		}
		if e := g.EdgeBetween(v, parent[v]); e >= 0 {
			edges = append(edges, e)
		}
	}
	return edges
}
