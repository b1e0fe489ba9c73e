package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/oracle"
	"ssmst/internal/partition"
	"ssmst/internal/runtime"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/train"
	"ssmst/internal/verify"
)

// runProbes measures single layers in isolation, each through its public
// entry point: the marker stages and the oracles on a fresh copy of the
// workload's graph, the engine floor, the full-recheck verifier and one
// train sweep on the same instance, and the worklist and transformer
// layers on small probe instances of their own. Every value is measured on
// every workload; the prediction of which ones a change moves where is in
// BENCHMARK.json and README.md.
func runProbes(x *run, s scenario) (map[string]float64, error) {
	pr := map[string]float64{}
	var g *graph.Graph
	pr["graph.generate_ms"] = timeMedian(3, time.Millisecond, func() { g = s.generate() })
	var res *syncmst.Result
	var err error
	pr["syncmst.simulate_ms"] = timeMedian(3, time.Millisecond, func() { res, err = syncmst.Simulate(g) })
	if err != nil {
		return nil, err
	}
	pr["syncmst.rounds"] = float64(res.Rounds)
	var l *verify.Labeled
	pr["verify.mark_ms"] = timeMedian(3, time.Millisecond, func() { l, err = verify.Mark(g) })
	if err != nil {
		return nil, err
	}
	pr["verify.label_bits_max"] = float64(l.MaxLabelBits())
	pr["partition.compute_ms"] = timeMedian(3, time.Millisecond, func() { _, err = partition.Compute(l.H) })
	if err != nil {
		return nil, err
	}
	pr["hierarchy.mark_strings_ms"] = timeMedian(3, time.Millisecond, func() { hierarchy.MarkStrings(l.H) })
	pr["train.mark_ms"] = timeMedian(3, time.Millisecond, func() { train.Mark(l.Parts) })

	strs := make([]hierarchy.Strings, g.N())
	for v := range strs {
		strs[v] = l.Labels[v].HS
	}
	var violations map[int][]hierarchy.Violation
	pr["hierarchy.check_all_ms"] = timeMedian(3, time.Millisecond, func() { violations = hierarchy.CheckAll(l.Tree, l.H.Ell(), strs) })
	if len(violations) > 0 {
		return nil, fmt.Errorf("hierarchy.CheckAll: %d nodes violate the marked strings", len(violations))
	}

	if err := oracleProbes(pr, g, l); err != nil {
		return nil, err
	}
	roundProbes(pr, x.cfg, g, l, x.opt.seed)
	if err := coastProbes(pr, x); err != nil {
		return nil, err
	}
	if err := transformerProbe(pr, x.cfg, x.opt.seed); err != nil {
		return nil, err
	}
	return pr, nil
}

// oracleProbes times both centralized oracles and their cross-check on the
// graph's MST. TLightness is O(m·n), so large graphs get one repetition.
func oracleProbes(pr map[string]float64, g *graph.Graph, l *verify.Labeled) error {
	var tree []int
	for _, e := range l.Tree.ParentEdge {
		if e >= 0 {
			tree = append(tree, e)
		}
	}
	less := graph.ByWeight(g)
	reps := 3
	if g.N() > 1024 {
		reps = 1
	}
	var a, b oracle.Verdict
	var ok bool
	var err error
	pr["oracle.tlightness_ms"] = timeMedian(reps, time.Millisecond, func() { a = oracle.TLightness(g, tree, less) })
	pr["oracle.unionfind_ms"] = timeMedian(3, time.Millisecond, func() { b = oracle.CycleUnionFind(g, tree, less) })
	pr["oracle.crosscheck_ms"] = timeMedian(reps, time.Millisecond, func() { ok, err = oracle.CrossCheck(g, tree, less) })
	if err != nil || !a.IsMST || !b.IsMST || !ok {
		return fmt.Errorf("oracles reject the marker's MST (tlightness=%v unionfind=%v crosscheck=%v err=%v)", a.IsMST, b.IsMST, ok, err)
	}
	return nil
}

// roundProbes measures the engine floor (FloodMin), the verifier with every
// memo missing (full recheck), and one sweep of both trains of every node
// over a frozen snapshot of the settled dense verifier.
func roundProbes(pr map[string]float64, cfg config, g *graph.Graph, l *verify.Labeled, seed int64) {
	flood := runtime.New(g, runtime.FloodMin{}, verify.SubSeed(seed, streamProbe, 0))
	flood.Parallel = true
	flood.RunSyncRounds(2)
	pr["runtime.flood_round_us"] = timeMedian(4*cfg.probeRounds, time.Microsecond, flood.StepSync)

	full := verify.NewFullRecheckRunner(l, verify.Sync, verify.SubSeed(seed, streamProbe, 1))
	full.Eng.RunSyncRounds(2)
	pr["verify.fullrecheck_round_us"] = timeMedian(cfg.probeRounds, time.Microsecond, full.Step)

	r := verify.NewRunner(l, verify.Sync, verify.SubSeed(seed, streamProbe, 2))
	r.Eng.RunSyncRounds(warmupRounds(l))
	pr["train.sweep_us"] = trainSweep(cfg.probeRounds, r, l)
}

// trainSweep steps both trains of every node once per sweep, each from a
// train.Ctx built out of a frozen snapshot of r (a pure function of the
// snapshot, so every sweep does identical work), and returns the median
// sweep time in µs.
func trainSweep(reps int, r *verify.Runner, l *verify.Labeled) float64 {
	g := r.Eng.G()
	n := g.N()
	snap := make([]*verify.VState, n)
	for v := range snap {
		snap[v] = r.Eng.State(v).Clone().(*verify.VState)
	}
	side := func(s *verify.VState, top bool) (*train.State, *train.Labels) {
		if top {
			return &s.TopS, &s.L.Train.Top
		}
		return &s.BotS, &s.L.Train.Bottom
	}
	type job struct {
		old *train.State
		ctx train.Ctx
	}
	jobs := make([]job, 0, 2*n)
	for v := 0; v < n; v++ {
		s := snap[v]
		for _, top := range []bool{true, false} {
			st, lab := side(s, top)
			j := job{old: st, ctx: train.Ctx{OwnID: s.MyID, Lab: lab, Strings: &s.L.HS, N: s.L.Size.N, Top: top}}
			if p := l.Tree.Parent[v]; p >= 0 {
				ps, pl := side(snap[p], top)
				j.ctx.Parent = &train.PeerTrain{S: ps, L: pl}
			}
			for _, h := range g.Ports(v) {
				if l.Tree.Parent[h.Peer] == v {
					cs, cl := side(snap[h.Peer], top)
					j.ctx.Children = append(j.ctx.Children, train.PeerTrain{S: cs, L: cl})
				}
			}
			jobs = append(jobs, j)
		}
	}
	var dst train.State
	return timeMedian(reps, time.Microsecond, func() {
		for i := range jobs {
			train.StepInto(&dst, jobs[i].old, &jobs[i].ctx)
		}
	})
}

// coastProbes settles a worklist verifier, then measures a fully frozen
// round, the per-node coast replay Engine.State performs after 4096 quiet
// rounds, and ApplyChurn of MST-preserving events.
func coastProbes(pr map[string]float64, x *run) error {
	const quiet = 4096
	n, seed := x.cfg.coastProbeN, x.opt.seed
	g := randomGraph(n)
	l, err := verify.Mark(g)
	if err != nil {
		return err
	}
	r := verify.NewWorklistRunner(l, verify.SubSeed(seed, streamProbe, 4))
	if err := settle(x, r); err != nil {
		return fmt.Errorf("worklist probe: %w", err)
	}
	t0 := time.Now()
	for i := 0; i < quiet; i++ {
		r.Step()
	}
	pr["verify.quiet_round_ns"] = float64(time.Since(t0)) / quiet
	if r.Eng.LastActive() != 0 {
		return fmt.Errorf("worklist probe: a frozen network stepped %d nodes", r.Eng.LastActive())
	}
	t0 = time.Now()
	for v := 0; v < g.N(); v++ {
		r.Eng.State(v)
	}
	pr["verify.coast_replay_ns"] = float64(time.Since(t0)) / float64(g.N())

	rng := rand.New(rand.NewSource(verify.SubSeed(seed, streamProbe, 5)))
	var mutate []float64
	for attempts := 0; len(mutate) < 8 && attempts < 64; attempts++ {
		kind := preservingChurn[rng.Intn(len(preservingChurn))]
		t0 := time.Now()
		if _, ok := r.ApplyChurn(kind, rng); ok {
			mutate = append(mutate, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	if len(mutate) == 0 {
		return errors.New("worklist probe: no churn event could be planned")
	}
	pr["runtime.mutate_ms"] = median(mutate)
	return nil
}

// phases are the transformer phases in execution order, as metric suffixes.
var phases = []selfstab.Phase{selfstab.PhaseResync, selfstab.PhaseBuild, selfstab.PhaseLabel, selfstab.PhaseCheck}

// transformerProbe runs the transformer from scrambled states to a stable
// MST output, plus a stretch of quiet checking, polling every node's phase
// after each round: selfstab.rounds.<phase> counts the rounds in which any
// node is in the phase, selfstab.round_us.<phase> is the median time of the
// rounds most nodes spend in it.
func transformerProbe(pr map[string]float64, cfg config, seed int64) error {
	const checkRounds = 64
	n := cfg.restabProbeN
	g := randomGraph(n)
	r := selfstab.NewRunner(g, n, verify.Sync, verify.SubSeed(seed, streamProbe, 7))
	r.Scramble(rand.New(rand.NewSource(verify.SubSeed(seed, streamProbe, 8))))
	rounds := make([]int, len(phases))
	times := make([][]float64, len(phases))
	count := make([]int, len(phases))
	stableAt := -1
	budget := 2 * r.StabilizationBudget()
	for k := 0; k < budget && (stableAt < 0 || k < stableAt+checkRounds); k++ {
		t0 := time.Now()
		r.Step()
		d := float64(time.Since(t0)) / float64(time.Microsecond)
		for i := range count {
			count[i] = 0
		}
		for v := 0; v < n; v++ {
			count[r.Eng.State(v).(*selfstab.SState).Phase]++
		}
		major := 0
		for i, c := range count {
			if c > 0 {
				rounds[i]++
			}
			if c > count[major] {
				major = i
			}
		}
		times[major] = append(times[major], d)
		if stableAt < 0 && r.Stabilized() && r.OutputIsMST() {
			stableAt = k
		}
	}
	if stableAt < 0 {
		return fmt.Errorf("transformer probe: not stabilized within %d rounds", budget)
	}
	for i, p := range phases {
		pr["selfstab.rounds."+p.String()] = float64(rounds[i])
		pr["selfstab.round_us."+p.String()] = median(times[i])
	}
	return nil
}
