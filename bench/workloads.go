package main

import (
	"fmt"
	"math/rand"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/train"
	"ssmst/internal/verify"
)

// params sizes one workload. The benchmark's tests run shrunk copies of the
// table below by changing these values only.
type params struct {
	n        int   // nodes of the workload's instance (each graph's, for oracle-campaign)
	wave     int   // victims per fault wave, or events per churn wave
	calm     int   // consecutive alarm-free rounds that end a recovery
	radius   int   // restab: BFS radius of the regional outage
	subSeeds int   // oracle-campaign: graphs per family
	ks       []int // oracle-campaign: cycle edits of the corrupted trees
	observe  int   // oracle-campaign: rounds the verifier runs on each corrupted tree (more if it alarms later)
}

// workload is one row of the workload table: a closed loop whose next
// episode starts only after the previous one has recovered.
type workload struct {
	name string
	why  string // why the workload exists; BENCHMARK.json carries it too
	p    params
	new  func(p params, seed int64) scenario
}

// scenario is one workload instance: the fixed graphs (instanceSeed) and
// everything --seed drives on them.
type scenario interface {
	// setup generates, marks, constructs and warms up / settles /
	// stabilizes the instance; setup_s times exactly this.
	setup(x *run) error
	// episode runs episode i until the instance has recovered. Verdict
	// failures are recorded through x.fail; an error is a harness failure
	// that aborts the run.
	episode(x *run, i int) error
	// nodes is the number of nodes set up (the heap_bytes_per_node divisor).
	nodes() int
	// cycle is the number of episodes after which the episode mix repeats.
	cycle() int
	// generate rebuilds the workload's (first) graph; the layer probes run
	// on it.
	generate() *graph.Graph
}

var workloads = []workload{
	{
		name: "dense-detect",
		why:  "fault waves on the dense verifier: every round steps all n nodes through engine, trains and sampler with the static memo hitting; worklist, transformer and oracle bypassed",
		p:    params{n: 4096, wave: 32, calm: 64},
		new:  func(p params, seed int64) scenario { return &denseDetect{p: p, seed: seed} },
	},
	{
		name: "coast-storm",
		why:  "fault and MST-preserving churn waves on the worklist verifier: frontier, melt and re-certify, coast replay and topology writes, none of which dense-detect runs",
		p:    params{n: 1024, wave: 8, calm: 64},
		new:  func(p params, seed int64) scenario { return &coastStorm{p: p, seed: seed} },
	},
	{
		name: "restab",
		why:  "transformer re-stabilizing after regional outages at n=256, where the engine's fixed per-round cost dominates; the only workload running the SYNC_MST machine and the label phase",
		p:    params{n: 256, radius: 2},
		new:  func(p params, seed int64) scenario { return &restab{p: p, seed: seed} },
	},
	{
		name: "oracle-campaign",
		why:  "both centralized oracles and MarkTree on 4 graph families at n=4096, with little distributed work: where an oracle change shows and engine changes should not",
		p:    params{n: 4096, subSeeds: 2, ks: []int{16, 64}, observe: 64},
		new:  func(p params, seed int64) scenario { return &oracleCampaign{p: p, seed: seed} },
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seed streams: every consumer derives its randomness from the one seed
// through verify.SubSeed, so changing how one consumer draws never shifts
// another's inputs.
const (
	streamEngine int64 = iota
	streamEpisode
	streamProbe
)

// instanceSeed fixes the graphs: every workload runs on the same graphs
// whatever --seed is, and --seed drives the engines and the event stream on
// them (fault victims and kinds, churn, outages, corrupted trees). Across
// graph seeds, the structure alone moved coast-storm's episode time by ±8 %
// (4003 to 5298 rounds to re-freeze over seeds 1–10), which would have
// taken most of a regression bound.
const instanceSeed = 1

// randomGraph is the instance graph of n nodes: RandomConnected(n, 2n).
func randomGraph(n int) *graph.Graph {
	return graph.RandomConnected(n, 2*n, verify.SubSeed(instanceSeed, int64(n)))
}

// warmupRounds is the dense verifier's warm-up: two worst-case train cycles
// plus slack, after which every train has circulated its pieces.
func warmupRounds(l *verify.Labeled) int {
	max := 0
	for i := range l.Labels {
		for _, lab := range []*train.Labels{&l.Labels[i].Train.Top, &l.Labels[i].Train.Bottom} {
			if b := lab.CycleBudget(); b > max {
				max = b
			}
		}
	}
	return 2*max + 32
}

func alarmed(eng *runtime.Engine) func() bool {
	return func() bool { _, a := eng.AnyAlarm(); return a }
}

// calmRounds steps until calm consecutive rounds raise no alarm.
func calmRounds(x *run, eng *runtime.Engine, step func(), max, calm int) (int, bool) {
	quiet := 0
	return x.until(eng, step, max, func() bool {
		if _, a := eng.AnyAlarm(); a {
			quiet = 0
		} else {
			quiet++
		}
		return quiet >= calm
	})
}

// markedGraph generates the instance graph of n nodes and marks it.
func markedGraph(x *run, n int) (*verify.Labeled, error) {
	sp := x.begin("graph.generate")
	g := randomGraph(n)
	x.end(sp)
	sp = x.begin("verify.mark")
	l, err := verify.Mark(g)
	x.end(sp)
	if err != nil {
		return nil, fmt.Errorf("mark: %w", err)
	}
	return l, nil
}

// crossCheck asks both centralized oracles whether tree is an MST of g.
func crossCheck(x *run, g *graph.Graph, tree []int) (bool, error) {
	sp := x.begin("oracle.crosscheck")
	defer x.end(sp)
	return oracle.CrossCheck(g, tree, graph.ByWeight(g))
}

// faultWave injects up to size faults at distinct random victims, saving
// each victim's state first so the repair can restore it. kind draws each
// fault's kind; draws that leave the victim unchanged are retried within a
// bounded budget.
func faultWave(x *run, r *verify.Runner, size int, rng *rand.Rand, kind func() verify.FaultKind) ([]int, []runtime.State) {
	n := r.Eng.G().N()
	hit := make([]bool, n)
	var victims []int
	var saved []runtime.State
	for attempts := 0; len(victims) < size && attempts < 16*size+64; attempts++ {
		v := rng.Intn(n)
		if hit[v] {
			continue
		}
		k := kind()
		before := r.Eng.State(v).Clone()
		sp := x.begin("verify.inject")
		ok := r.InjectKind(v, k, rng)
		x.end(sp)
		if ok {
			hit[v] = true
			victims = append(victims, v)
			saved = append(saved, before)
		}
	}
	return victims, saved
}

// detectRepairRecover is the fault-wave episode body on a verifier: step to
// the first alarm, restore the victims' saved states, step until calm. It
// returns the rounds from the repair to calm, and whether the network
// recovered.
func detectRepairRecover(x *run, r *verify.Runner, victims []int, saved []runtime.State, calm int) (int, bool) {
	eng := r.Eng
	budget := verify.DetectionBudget(eng.G().N())
	sp := x.begin("bench.detect")
	d, ok := x.until(eng, r.Step, budget, alarmed(eng))
	x.end(sp)
	if !ok {
		x.fail("alarm-within-budget", victims, "no alarm within %d rounds of %d faults", budget, len(victims))
		return 0, false
	}
	x.detected(d, victims, eng)
	sp = x.begin("bench.repair")
	for j, v := range victims {
		spc := x.begin("runtime.set_state")
		eng.SetState(v, saved[j])
		x.end(spc)
	}
	x.end(sp)
	sp = x.begin("bench.recover")
	x.recovering = true
	k, ok := calmRounds(x, eng, r.Step, budget, calm)
	x.recovering = false
	x.end(sp)
	if !ok {
		x.fail("calm-within-budget", eng.AlarmNodes(), "alarms persist %d rounds after the repair", budget)
	}
	return k, ok
}

// denseDetect: fault waves of stored-piece corruptions, detected through the
// trains and the Ask/Show sampler on the dense incremental verifier.
type denseDetect struct {
	p    params
	seed int64
	r    *verify.Runner
}

func (s *denseDetect) nodes() int             { return s.p.n }
func (s *denseDetect) cycle() int             { return 1 }
func (s *denseDetect) generate() *graph.Graph { return randomGraph(s.p.n) }

func (s *denseDetect) setup(x *run) error {
	l, err := markedGraph(x, s.p.n)
	if err != nil {
		return err
	}
	sp := x.begin("verify.new_runner")
	s.r = verify.NewRunner(l, verify.Sync, verify.SubSeed(s.seed, streamEngine))
	x.end(sp)
	sp = x.begin("bench.warmup")
	k, bad := x.until(s.r.Eng, s.r.Step, warmupRounds(l), alarmed(s.r.Eng))
	x.end(sp)
	if bad {
		return fmt.Errorf("false alarm at nodes %v in warm-up round %d", s.r.Eng.AlarmNodes(), k)
	}
	x.noteBits(s.r.Eng)
	return nil
}

func (s *denseDetect) episode(x *run, i int) error {
	c0 := readCounters(s.r.Machine)
	rng := rand.New(rand.NewSource(verify.SubSeed(s.seed, streamEpisode, int64(i))))
	sp := x.begin("bench.inject")
	victims, saved := faultWave(x, s.r, s.p.wave, rng, func() verify.FaultKind { return verify.FaultStoredPieceW })
	x.end(sp)
	if len(victims) == 0 {
		return fmt.Errorf("episode %d: no node stores a piece to corrupt", i)
	}
	if k, ok := detectRepairRecover(x, s.r, victims, saved, s.p.calm); ok {
		x.recovered(k)
	}
	x.addCounters(s.r.Machine, c0)
	x.noteBits(s.r.Eng)
	return nil
}

// coastStorm: the worklist engine absorbing alternating waves — static
// faults (even episodes) and MST-preserving topology churn (odd episodes) —
// each ending when the whole network has re-frozen.
type coastStorm struct {
	p    params
	seed int64
	r    *verify.Runner
}

func (s *coastStorm) nodes() int             { return s.p.n }
func (s *coastStorm) cycle() int             { return 2 }
func (s *coastStorm) generate() *graph.Graph { return randomGraph(s.p.n) }

func (s *coastStorm) setup(x *run) error {
	l, err := markedGraph(x, s.p.n)
	if err != nil {
		return err
	}
	sp := x.begin("verify.new_runner")
	s.r = verify.NewWorklistRunner(l, verify.SubSeed(s.seed, streamEngine))
	x.end(sp)
	sp = x.begin("bench.settle")
	err = settle(x, s.r)
	x.end(sp)
	x.noteBits(s.r.Eng)
	return err
}

// settle steps a worklist verifier until the whole network is frozen, with
// no alarm on the way.
func settle(x *run, r *verify.Runner) error {
	eng := r.Eng
	budget := 2 * verify.DetectionBudget(eng.G().N())
	k, ok := x.until(eng, r.Step, budget, func() bool {
		_, a := eng.AnyAlarm()
		return a || eng.LastActive() == 0
	})
	if _, a := eng.AnyAlarm(); a {
		return fmt.Errorf("false alarm at nodes %v in settle round %d", eng.AlarmNodes(), k)
	}
	if !ok {
		return fmt.Errorf("network not frozen after %d rounds", budget)
	}
	return nil
}

// refreeze steps until the whole network is frozen again.
func (s *coastStorm) refreeze(x *run) (int, bool) {
	sp := x.begin("bench.refreeze")
	defer x.end(sp)
	budget := 2 * verify.DetectionBudget(s.p.n)
	x.recovering = true
	defer func() { x.recovering = false }()
	k, ok := x.until(s.r.Eng, s.r.Step, budget, func() bool { return s.r.Eng.LastActive() == 0 })
	if !ok {
		x.fail("refreeze-within-budget", nil, "network still active %d rounds after the wave", budget)
	}
	return k, ok
}

var preservingChurn = []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy}

func (s *coastStorm) episode(x *run, i int) error {
	c0 := readCounters(s.r.Machine)
	defer x.addCounters(s.r.Machine, c0)
	defer x.noteBits(s.r.Eng)
	rng := rand.New(rand.NewSource(verify.SubSeed(s.seed, streamEpisode, int64(i))))
	eng := s.r.Eng
	if i%2 == 0 {
		kinds := verify.StaticFaultKinds()
		sp := x.begin("bench.inject")
		victims, saved := faultWave(x, s.r, s.p.wave, rng, func() verify.FaultKind { return kinds[rng.Intn(len(kinds))] })
		x.end(sp)
		if len(victims) == 0 {
			return fmt.Errorf("episode %d: no fault changed any state", i)
		}
		if k, ok := detectRepairRecover(x, s.r, victims, saved, s.p.calm); ok {
			if f, ok := s.refreeze(x); ok {
				x.recovered(k + f)
			}
		}
		return nil
	}
	sp := x.begin("bench.churn")
	applied := 0
	for j := 0; j < s.p.wave; j++ {
		kind := preservingChurn[rng.Intn(len(preservingChurn))]
		spc := x.begin("verify.apply_churn")
		_, ok := s.r.ApplyChurn(kind, rng)
		x.end(spc)
		if ok {
			applied++
		}
	}
	x.end(sp)
	if applied == 0 {
		return fmt.Errorf("episode %d: no churn event could be planned", i)
	}
	sp = x.begin("bench.silence")
	x.recovering = true
	k, bad := x.until(eng, s.r.Step, s.p.calm, alarmed(eng))
	x.recovering = false
	x.end(sp)
	if bad {
		x.fail("silent-after-preserving-churn", eng.AlarmNodes(), "alarm %d rounds after %d MST-preserving churn events", k, applied)
		return nil
	}
	if f, ok := s.refreeze(x); ok {
		x.recovered(k + f)
	}
	return nil
}

// restab: the self-stabilizing transformer re-stabilizing after regional
// outages; every rebuilt output is certified by the oracles.
type restab struct {
	p    params
	seed int64
	g    *graph.Graph
	r    *selfstab.Runner
}

func (s *restab) nodes() int             { return s.p.n }
func (s *restab) cycle() int             { return 1 }
func (s *restab) generate() *graph.Graph { return randomGraph(s.p.n) }

func (s *restab) setup(x *run) error {
	sp := x.begin("graph.generate")
	s.g = s.generate()
	x.end(sp)
	// The network starts clean (every node in an epoch-0 resync), so the
	// first stabilization is exactly one epoch. From scrambled states it
	// takes one or two epochs depending on the seed; the transformer probe
	// of traced runs measures that start.
	sp = x.begin("selfstab.new_runner")
	s.r = selfstab.NewRunner(s.g, s.p.n, verify.Sync, verify.SubSeed(s.seed, streamEngine))
	x.end(sp)
	sp = x.begin("bench.stabilize")
	budget := 2 * s.r.StabilizationBudget()
	_, ok := x.until(s.r.Eng, s.r.Step, budget, s.stable)
	x.end(sp)
	if !ok {
		return fmt.Errorf("not stabilized to the MST within %d rounds of the clean start", budget)
	}
	x.noteBits(s.r.Eng)
	edges, _ := s.r.OutputEdges()
	isMST, err := crossCheck(x, s.g, edges)
	if err != nil {
		return err
	}
	if !isMST {
		return fmt.Errorf("oracles reject the stabilized output")
	}
	return nil
}

func (s *restab) stable() bool { return s.r.Stabilized() && s.r.OutputIsMST() }

func (s *restab) episode(x *run, i int) error {
	m := s.r.M.Verifier()
	c0 := readCounters(m)
	defer x.addCounters(m, c0)
	defer x.noteBits(s.r.Eng)
	eng := s.r.Eng
	sp := x.begin("bench.inject")
	spc := x.begin("selfstab.outage")
	_, victims := s.r.ApplyRegionalOutage(s.p.radius, verify.SubSeed(s.seed, streamEpisode, int64(i)))
	x.end(spc)
	x.end(sp)
	if len(victims) == 0 {
		return fmt.Errorf("episode %d: the outage corrupted no node", i)
	}
	budget := verify.DetectionBudget(s.p.n)
	sp = x.begin("bench.detect")
	d, ok := x.until(eng, s.r.Step, budget, func() bool { return !eng.AllDone() })
	x.end(sp)
	if !ok {
		x.fail("leave-check-within-budget", victims, "still checking %d rounds after the outage", budget)
		return nil
	}
	x.detected(d, nil, eng)
	sp = x.begin("bench.recover")
	x.recovering = true
	budget = 2 * s.r.StabilizationBudget()
	k, ok := x.until(eng, s.r.Step, budget, s.stable)
	x.recovering = false
	x.end(sp)
	if !ok {
		x.fail("restabilize-within-budget", victims, "no stable MST output within %d rounds", budget)
		return nil
	}
	x.recovered(k)
	sp = x.begin("bench.oracle")
	edges, _ := s.r.OutputEdges()
	isMST, err := crossCheck(x, s.g, edges)
	x.end(sp)
	switch {
	case err != nil:
		x.fail("oracle-crosscheck", nil, "%v", err)
	case !isMST:
		x.fail("oracle-accepts-output", nil, "the re-stabilized output is not an MST")
	}
	return nil
}

// oracleCampaign: per (family, sub-seed) graph, both oracles on the true MST
// and on k-corrupted trees, then the distributed verifier on labels marked
// for each corrupted tree, observed for a fixed window of rounds (so every
// cell steps the same number of rounds, and round_us is the verifier's
// steady round on the campaign graphs, not a mix dominated by the first,
// memo-cold round). A cell's inputs derive from the seed and the cell alone,
// so every cycle of the campaign repeats the same work.
type oracleCampaign struct {
	p      params
	seed   int64
	graphs []*graph.Graph
	names  []string
}

func (s *oracleCampaign) nodes() int { return s.p.n * len(s.graphs) }
func (s *oracleCampaign) cycle() int { return len(graph.Families()) * s.p.subSeeds }
func (s *oracleCampaign) generate() *graph.Graph {
	g, _ := s.family(0, 0)
	return g
}

// family builds the si-th graph of the fi-th family.
func (s *oracleCampaign) family(fi, si int) (*graph.Graph, error) {
	return graph.ByFamily(graph.Families()[fi], s.p.n, verify.SubSeed(instanceSeed, int64(s.p.n), int64(fi), int64(si)))
}

func (s *oracleCampaign) setup(x *run) error {
	for fi, fam := range graph.Families() {
		for si := 0; si < s.p.subSeeds; si++ {
			sp := x.begin("graph.generate")
			g, err := s.family(fi, si)
			x.end(sp)
			if err != nil {
				return err
			}
			s.graphs = append(s.graphs, g)
			s.names = append(s.names, fmt.Sprintf("%s/%d", fam, si))
		}
	}
	return nil
}

func (s *oracleCampaign) episode(x *run, i int) error {
	cell := i % len(s.graphs)
	g := s.graphs[cell]
	sp := x.begin("bench.oracle")
	spc := x.begin("graph.kruskal")
	tree, err := graph.Kruskal(g, graph.ByWeight(g))
	x.end(spc)
	if err != nil {
		x.end(sp)
		return fmt.Errorf("%s: %w", s.names[cell], err)
	}
	isMST, err := crossCheck(x, g, tree)
	x.end(sp)
	switch {
	case err != nil:
		x.fail("oracle-crosscheck", nil, "%s: %v", s.names[cell], err)
	case !isMST:
		x.fail("oracle-accepts-mst", nil, "%s: the oracles reject the Kruskal MST", s.names[cell])
	}
	sp = x.begin("graph.corrupt")
	gen, err := graph.NewCorruptedMSTGenerator(g)
	x.end(sp)
	if err != nil {
		return err
	}
	for j, k := range s.p.ks {
		sp = x.begin("graph.corrupt")
		bad, err := gen.Generate(k, verify.SubSeed(s.seed, streamEpisode, int64(cell), int64(j)))
		x.end(sp)
		if err != nil {
			return fmt.Errorf("%s k=%d: %w", s.names[cell], k, err)
		}
		sp = x.begin("bench.oracle")
		isMST, err := crossCheck(x, g, bad)
		x.end(sp)
		switch {
		case err != nil:
			x.fail("oracle-crosscheck", nil, "%s k=%d: %v", s.names[cell], k, err)
			continue
		case isMST:
			x.fail("oracle-rejects-corrupted", nil, "%s k=%d: the oracles accept a corrupted tree", s.names[cell], k)
			continue
		}
		sp = x.begin("bench.mark")
		spc = x.begin("verify.mark_tree")
		l, err := verify.MarkTree(g, bad, false)
		x.end(spc)
		if err != nil {
			x.end(sp)
			return fmt.Errorf("%s k=%d: mark: %w", s.names[cell], k, err)
		}
		spc = x.begin("verify.new_runner")
		r := verify.NewRunner(l, verify.Sync, verify.SubSeed(s.seed, streamEngine, int64(cell), int64(j)))
		x.end(spc)
		x.end(sp)
		c0 := readCounters(r.Machine)
		budget := verify.DetectionBudget(s.p.n)
		sp = x.begin("bench.detect")
		d, ok := x.until(r.Eng, r.Step, budget, alarmed(r.Eng))
		x.end(sp)
		if !ok {
			x.fail("alarm-within-budget", nil, "%s k=%d: corrupted tree not detected within %d rounds", s.names[cell], k, budget)
			continue
		}
		x.detected(d, nil, r.Eng)
		sp = x.begin("bench.observe")
		for ; d < s.p.observe; d++ {
			x.step(r.Eng, r.Step)
		}
		x.end(sp)
		x.addCounters(r.Machine, c0)
		x.noteBits(r.Eng)
	}
	return nil
}
