// Package core orchestrates the experiment suite: every table and figure of
// the paper maps to a function here, and cmd/experiments prints the results
// (its -h menu maps each to its experiment number).
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"ssmst/internal/ghs"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/labeling"
	"ssmst/internal/lowerbound"
	"ssmst/internal/partition"
	"ssmst/internal/selfstab"
	"ssmst/internal/syncmst"
	"ssmst/internal/train"
	"ssmst/internal/verify"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Remarks []string
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&b, "\n%s\n", r)
	}
	return b.String()
}

// Table1 reproduces the shape of the paper's Table 1: space (measured max
// bits/node) and stabilization time (measured rounds) of the current
// paper's algorithm versus the 1-time-scheme baseline class, with the
// paper-reported bounds quoted for the rows we do not re-implement.
func Table1(sizes []int, seed int64) *Table {
	t := &Table{
		Title:  "Table 1 — self-stabilizing MST construction (measured)",
		Header: []string{"algorithm", "n", "space (bits/node, measured)", "stabilization time (rounds, measured)"},
		Remarks: []string{
			"Paper-reported complexities for rows not re-implemented: [48]/[18]: O(log n) bits, Ω(n·|E|) time; [17]: O(log² n) bits, O(n²) time; [52]+[3]+[9]: O(|E|·n) bits, O(n²) time.",
			"The measured rows show this paper's O(log n)/O(n) point and the KK-label memory class (log² n) used by the [17]-style approach.",
		},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		r := selfstab.NewRunner(g, n, verify.Sync, seed)
		status := roundsCell(r.RunUntilStable(r.StabilizationBudget()))
		t.Rows = append(t.Rows, []string{"this paper (selfstab)", fmt.Sprint(n),
			fmt.Sprint(r.Eng.MaxStateBits()), status})

		// KK-label memory class ([17]-style building block): measured label
		// bits at the same n.
		res, err := syncmst.Simulate(g)
		if err == nil {
			max := 0
			for _, l := range labeling.MarkKK(res.Hierarchy) {
				if b := l.BitSize(); b > max {
					max = b
				}
			}
			t.Rows = append(t.Rows, []string{"[17]-class labels (KK, log² n)", fmt.Sprint(n),
				fmt.Sprint(max), "O(n²) (paper bound; detection is 1 round)"})
		}
	}
	return t
}

// Table2 regenerates the paper's Table 2 from the marker on the Figure 1
// example and reports whether it matches the paper exactly.
func Table2() *Table {
	t := &Table{
		Title:  "Table 2 — Roots/EndP/Parents/Or_EndP on the Figure 1 example",
		Header: []string{"node", "Roots", "EndP", "Parents", "Or_EndP", "matches paper"},
	}
	h, err := hierarchy.ExampleHierarchy()
	if err != nil {
		t.Remarks = append(t.Remarks, "error: "+err.Error())
		return t
	}
	ss := hierarchy.MarkStrings(h)
	want := hierarchy.ExampleTable2()
	for v := range ss {
		roots, endP, parents, orEndP := hierarchy.FormatStrings(&ss[v])
		match := roots == want[v].Roots && endP == want[v].EndP &&
			parents == want[v].Parents && orEndP == want[v].OrEndP
		t.Rows = append(t.Rows, []string{
			hierarchy.ExampleNames[v], roots, endP, parents, orEndP, fmt.Sprint(match),
		})
	}
	return t
}

// DetectionSync measures synchronous detection time after one fault
// (experiment E3: the paper's O(log² n)).
func DetectionSync(sizes []int, trials int, seed int64) *Table {
	t := &Table{
		Title:  "E3 — synchronous detection time after one fault (paper: O(log² n))",
		Header: []string{"n", "λ", "median rounds", "max rounds", "detected/applied/trials", "budget"},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		var times []int
		applied := 0
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < trials; trial++ {
			l, err := verify.Mark(g)
			if err != nil {
				continue
			}
			r := verify.NewRunner(l, verify.Sync, seed+int64(trial))
			budget := verify.DetectionBudget(n)
			r.Eng.RunSyncRounds(budget / 4)
			node := rng.Intn(n)
			if !r.InjectKind(node, verify.FaultStoredPieceW, rng) {
				continue
			}
			applied++
			if rounds, _, ok := r.RunUntilAlarm(2 * budget); ok {
				times = append(times, rounds)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(train.LambdaThreshold(n)),
			medianCell(times), maxCell(times), trialCounts(len(times), applied, trials),
			fmt.Sprint(verify.DetectionBudget(n)),
		})
	}
	return t
}

// DetectionAsync measures asynchronous detection time (experiment E4: the
// paper's O(Δ log³ n)).
func DetectionAsync(sizes []int, trials int, seed int64) *Table {
	t := &Table{
		Title:  "E4 — asynchronous detection time after one fault (paper: O(Δ·log³ n))",
		Header: []string{"n", "Δ", "median time units", "max time units", "detected/applied/trials"},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		rng := rand.New(rand.NewSource(seed))
		var times []int
		applied := 0
		for trial := 0; trial < trials; trial++ {
			l, err := verify.Mark(g)
			if err != nil {
				continue
			}
			r := verify.NewRunner(l, verify.Async, seed+int64(trial))
			r.Eng.Jitter = 0.3
			budget := verify.DetectionBudget(n)
			for i := 0; i < budget/4; i++ {
				r.Step()
			}
			if !r.InjectKind(rng.Intn(n), verify.FaultStoredPieceW, rng) {
				continue
			}
			applied++
			if rounds, _, ok := r.RunUntilAlarm(4 * budget); ok {
				times = append(times, rounds)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(g.MaxDegree()),
			medianCell(times), maxCell(times), trialCounts(len(times), applied, trials),
		})
	}
	return t
}

// DetectionDistance measures the fault-to-alarm distance for f faults
// (experiment E5: O(f log n)).
func DetectionDistance(n int, fs []int, seed int64) *Table {
	t := &Table{
		Title:  "E5 — detection distance for f faults (paper: O(f·log n))",
		Header: []string{"f", "max distance", "bound 4·f·λ"},
	}
	g := graph.RandomConnected(n, 2*n, seed)
	lam := train.LambdaThreshold(n)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fs {
		l, err := verify.Mark(g)
		if err != nil {
			continue
		}
		r := verify.NewRunner(l, verify.Sync, seed+int64(f))
		budget := verify.DetectionBudget(n)
		r.Eng.RunSyncRounds(budget / 4)
		var faults []int
		for len(faults) < f {
			v := rng.Intn(n)
			if r.InjectKind(v, verify.FaultStoredPieceW, rng) ||
				r.InjectKind(v, verify.FaultRootsEntry, rng) {
				faults = append(faults, v)
			}
		}
		_, alarms, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			t.Rows = append(t.Rows, []string{fmt.Sprint(f), "DNF", fmt.Sprint(4 * f * lam)})
			continue
		}
		worst := 0
		for _, d := range verify.DetectionDistance(g, faults, alarms) {
			if d > worst {
				worst = d
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(f), fmt.Sprint(worst), fmt.Sprint(4 * f * lam)})
	}
	return t
}

// Construction compares SYNC_MST and GHS rounds and memory (experiment E6).
func Construction(sizes []int, seed int64) *Table {
	t := &Table{
		Title:  "E6 — construction: SYNC_MST (O(n), O(log n) bits) vs GHS (O(n log n))",
		Header: []string{"n", "SYNC_MST rounds", "GHS rounds", "SYNC_MST max bits/node (register run)"},
		Remarks: []string{
			"GHS rounds are fragment-level ideal time; on random graphs merges are balanced, so both grow linearly and SYNC_MST's constant 22 dominates — the O(n log n) separation is a worst-case statement.",
		},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		sres, err := syncmst.Simulate(g)
		if err != nil {
			continue
		}
		gres, err := ghs.Run(g)
		if err != nil {
			continue
		}
		bitsCol := "-"
		if n <= 128 {
			if _, eng, err := syncmst.RunRegister(g, seed, 400*n+500); err == nil {
				bitsCol = fmt.Sprint(eng.MaxStateBits())
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(sres.Rounds), fmt.Sprint(gres.Rounds), bitsCol,
		})
	}
	return t
}

// Memory compares the full label size of this paper's scheme (O(log n))
// with the KK 1-time scheme (Θ(log² n)) — experiment E7.
func Memory(sizes []int, seed int64) *Table {
	t := &Table{
		Title:  "E7 — label memory: this scheme (O(log n)) vs KK 1-time scheme (Θ(log² n))",
		Header: []string{"n", "this scheme max bits", "KK max bits", "marker time (rounds)"},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		l, err := verify.Mark(g)
		if err != nil {
			continue
		}
		res, err := syncmst.Simulate(g)
		if err != nil {
			continue
		}
		kk := 0
		for _, lab := range labeling.MarkKK(res.Hierarchy) {
			if b := lab.BitSize(); b > kk {
				kk = b
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(l.MaxLabelBits()), fmt.Sprint(kk),
			fmt.Sprint(l.ConstructionTime),
		})
	}
	return t
}

// Partitions measures the partition invariants (experiment E9, Lemmas
// 6.4/6.5).
func Partitions(sizes []int, seed int64) *Table {
	t := &Table{
		Title:  "E9 — partition shape (Lemmas 6.4/6.5)",
		Header: []string{"n", "λ", "top parts", "min/max top size", "max top depth", "bottom parts", "max bottom size"},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		res, err := syncmst.Simulate(g)
		if err != nil {
			continue
		}
		p, err := partition.Compute(res.Hierarchy)
		if err != nil {
			continue
		}
		topMin, topMax, topDepth, topCnt := 1<<30, 0, 0, 0
		botMax, botCnt := 0, 0
		for i := range p.Parts {
			pp := &p.Parts[i]
			if pp.Kind == partition.Top {
				topCnt++
				if pp.Size() < topMin {
					topMin = pp.Size()
				}
				if pp.Size() > topMax {
					topMax = pp.Size()
				}
				if pp.Depth > topDepth {
					topDepth = pp.Depth
				}
			} else {
				botCnt++
				if pp.Size() > botMax {
					botMax = pp.Size()
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(p.Lambda), fmt.Sprint(topCnt),
			fmt.Sprintf("%d/%d", topMin, topMax), fmt.Sprint(topDepth),
			fmt.Sprint(botCnt), fmt.Sprint(botMax),
		})
	}
	return t
}

// SelfStabilization measures stabilization from scratch and from arbitrary
// states (experiment E12), plus fault recovery (E13).
func SelfStabilization(sizes []int, seed int64) *Table {
	t := &Table{
		Title:  "E12/E13 — self-stabilizing MST: stabilization and recovery (paper: O(n))",
		Header: []string{"n", "clean-start rounds", "from-arbitrary rounds", "fault recovery rounds"},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		r := selfstab.NewRunner(g, n, verify.Sync, seed)
		clean := roundsCell(r.RunUntilStable(r.StabilizationBudget()))
		r2 := selfstab.NewRunner(g, n, verify.Sync, seed+1)
		r2.Scramble(rand.New(rand.NewSource(seed)))
		arb := roundsCell(r2.RunUntilStable(2 * r2.StabilizationBudget()))
		rec := recoveryCell(r, rand.New(rand.NewSource(seed+2)), r.StabilizationBudget())
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), clean, arb, rec})
	}
	return t
}

// recoveryCell renders E13's cell: it injects a label fault into r, if r is
// stabilized, and reports the rounds to re-stabilize — "not applied" when r
// never stabilized or the fault changed nothing, "DNF" when recovery missed
// budget.
func recoveryCell(r *selfstab.Runner, rng *rand.Rand, budget int) string {
	if !r.Stabilized() || !r.InjectLabelFault(0, rng) {
		return "not applied"
	}
	return roundsCell(r.RunUntilStable(budget))
}

// roundsCell renders a round count, "DNF" when the run missed its budget.
func roundsCell(rounds int, ok bool) string {
	if !ok {
		return "DNF"
	}
	return fmt.Sprint(rounds)
}

// DetectionScaling extends the detection-time experiments E3 (standalone
// verifier) and E12 (detection inside the self-stabilizing transformer's
// check phase) past n=10⁴ — the regime the clone-per-step engine could not
// reach — and reports the measured curves against the paper's O(log² n)
// synchronous bound. The transformer rows seed the stabilized check-phase
// configuration directly (selfstab.SeedChecked): detection latency does not
// depend on how the configuration was reached, and simulating the O(n)
// build rounds first would bound n, not the measurement. Warm-up is two
// full train cycles of the slowest part (enough for every train to be
// rolling and the sampler to be mid-sweep) rather than a budget fraction,
// for the same reason.
func DetectionScaling(sizes []int, trials int, seed int64) *Table {
	t := &Table{
		Title: "E3/E12 at scale — synchronous detection time vs the O(log² n) bound (in-place engine)",
		Header: []string{"n", "λ", "log²n", "E3 verifier median rounds", "E3 detected/applied/trials",
			"E12 selfstab median rounds", "E12 detected/applied/trials", "budget", "verifier ns/round"},
		Remarks: []string{
			"Fault: FaultStoredPieceW (a stored piece's ω̂ raised) in both columns — detection must flow through the trains and the sampler, the O(log² n) path.",
			"budget is DetectionBudget(n) — the Theorem 8.5 bound the measured medians must stay under; detected counts the applied faults alarmed within 2·budget, and a median is over detected trials only.",
			"E12 detection = first round a node leaves the check phase (the transformer consumes the alarm and starts a new epoch in the same step).",
			"An E12 trial whose seeded check-phase configuration did not hold through the warm-up gets no fault; the E12 counts show how many such trials there were as (k not held).",
		},
	}
	for _, n := range sizes {
		g := graph.RandomConnected(n, 2*n, seed+int64(n))
		l, err := verify.Mark(g)
		if err != nil {
			continue
		}
		warm := 2*maxTrainBudget(l) + 32
		budget := verify.DetectionBudget(n)
		rng := rand.New(rand.NewSource(seed))
		var vTimes, sTimes, nsRounds []int
		vApplied, sApplied, notHeld := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			// E3: the standalone verifier.
			r := verify.NewRunner(l, verify.Sync, seed+int64(trial))
			start := time.Now()
			r.Eng.RunSyncRounds(warm)
			nsRounds = append(nsRounds, int(time.Since(start).Nanoseconds()/int64(warm)))
			// Not every node stores pieces: retry victims until one does.
			injected := false
			for att := 0; att < n && !injected; att++ {
				injected = r.InjectKind(rng.Intn(n), verify.FaultStoredPieceW, rng)
			}
			if !injected {
				continue
			}
			vApplied++
			if rounds, _, ok := r.RunUntilAlarm(2 * budget); ok {
				vTimes = append(vTimes, rounds)
			}
		}
		for trial := 0; trial < trials; trial++ {
			// E12: the transformer, seeded into its stabilized check phase,
			// with the same train-borne fault as E3; detection is a node
			// leaving the check phase (Runner.RunUntilDetect).
			sr := selfstab.NewRunner(g, n, verify.Sync, seed+int64(trial))
			sr.SeedStable(l)
			sr.Eng.RunSyncRounds(warm)
			if !sr.Eng.AllDone() {
				notHeld++
				continue
			}
			injected := false
			for att := 0; att < n && !injected; att++ {
				victim := rng.Intn(n)
				injected = sr.InjectCheckFault(victim, func(c *verify.VState) bool {
					return verify.ApplyFault(c, verify.FaultStoredPieceW, rng, g.Degree(victim))
				})
			}
			if !injected {
				continue
			}
			sApplied++
			if rounds, ok := sr.RunUntilDetect(2 * budget); ok {
				sTimes = append(sTimes, rounds)
			}
		}
		sCounts := trialCounts(len(sTimes), sApplied, trials)
		if notHeld > 0 {
			sCounts += fmt.Sprintf(" (%d not held)", notHeld)
		}
		lg := hierarchy.Ell(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(train.LambdaThreshold(n)), fmt.Sprint(lg * lg),
			medianCell(vTimes), trialCounts(len(vTimes), vApplied, trials),
			medianCell(sTimes), sCounts,
			fmt.Sprint(budget), fmt.Sprint(median(nsRounds)),
		})
	}
	return t
}

// ChurnDetection is one measured churn event: the planned mutation and the
// verifier's reaction.
type ChurnDetection struct {
	Event        verify.ChurnEvent
	DetectRounds int  // rounds from mutation to first alarm (breaking kinds)
	Detected     bool // false = stayed silent (expected for preserving kinds)
}

// MeasureChurnDetection builds a fresh marked instance at n, warms the
// incremental verifier to its sampling steady state, applies one churn
// event of the given kind, and measures the reaction: rounds to first alarm
// for MST-breaking kinds, silence over a post-event window for preserving
// kinds. ok is false when no event of the kind could be planned or the
// marker failed. Shared by the churnscaling experiment and the detection
// golden test (TestDetectionRoundsGolden).
func MeasureChurnDetection(n int, kind verify.ChurnKind, seed int64) (ChurnDetection, bool) {
	var out ChurnDetection
	g := graph.RandomConnected(n, 2*n, seed)
	l, err := verify.Mark(g)
	if err != nil {
		return out, false
	}
	r := verify.NewRunner(l, verify.Sync, seed)
	r.Eng.RunSyncRounds(2*maxTrainBudget(l) + 32)
	rng := rand.New(rand.NewSource(seed * 31))
	ev, ok := r.ApplyChurn(kind, rng)
	if !ok {
		return out, false
	}
	out.Event = ev
	budget := verify.DetectionBudget(n)
	if kind.BreaksMST() {
		rounds, _, detected := r.RunUntilAlarm(2 * budget)
		out.DetectRounds, out.Detected = rounds, detected
		return out, true
	}
	out.Detected = r.RunQuiet(budget/4) != nil
	return out, true
}

// ChurnScaling measures detection latency under live topology churn at
// growing n (the E3 shape, with the fault delivered by the network instead
// of a register corruption): per MST-breaking kind the median rounds from
// mutation to first alarm, with the MST-preserving kinds asserted silent in
// the same run.
func ChurnScaling(sizes []int, trials int, seed int64) *Table {
	t := &Table{
		Title: "E3-churn — detection latency under live topology churn (incremental in-place engine)",
		Header: []string{"n", "churn kind", "median detect rounds", "detected", "budget",
			"log²n", "preserving kinds silent"},
		Remarks: []string{
			"Each trial is a fresh marked instance: the graph is mutated live through Engine.MutateTopology (CSR re-sync, port remapping, dirty-epoch bumps) with the verifier running.",
			"weight-break lowers a non-tree weight below its cycle max; add-light inserts a link closing a lighter cycle — both make the verified tree a non-MST of the current graph, so detection within the Theorem 8.5 budget is the soundness claim under churn.",
			"'preserving kinds silent' counts trials in which every *planned* weight-keep/cut/add-heavy event left the network alarm-free (trials where an event kind could not be planned on the instance are excluded from the denominator).",
		},
	}
	preserving := []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy}
	for _, n := range sizes {
		budget := verify.DetectionBudget(n)
		lg := hierarchy.Ell(n)
		// The preserving menu runs once per trial (shared across rows). Only
		// events that were actually planned count toward the soundness
		// claim: a trial where no mutation of some kind exists on that
		// instance is excluded from the denominator, not misreported as an
		// alarm.
		silent, plannedQuiet := 0, 0
		for trial := 0; trial < trials; trial++ {
			quiet, planned := true, 0
			for i, kind := range preserving {
				d, ok := MeasureChurnDetection(n, kind, seed+int64(n)+int64(trial)*7+int64(i))
				if !ok {
					continue
				}
				planned++
				if d.Detected {
					quiet = false
				}
			}
			if planned > 0 {
				plannedQuiet++
				if quiet {
					silent++
				}
			}
		}
		for _, kind := range []verify.ChurnKind{verify.ChurnWeightBreak, verify.ChurnAddLight} {
			// Detection of an MST-breaking event is *guaranteed* (proof-
			// labeling soundness), so an undetected trial is a finding, not a
			// sample to drop: the detected/planned column keeps it visible
			// even when other trials succeed.
			var times []int
			planned, detected := 0, 0
			for trial := 0; trial < trials; trial++ {
				d, ok := MeasureChurnDetection(n, kind, seed+int64(n)+int64(trial)*13)
				if !ok {
					continue
				}
				planned++
				if d.Detected {
					detected++
					times = append(times, d.DetectRounds)
				}
			}
			if planned == 0 {
				continue
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), kind.String(), medianCell(times),
				fmt.Sprintf("%d/%d", detected, planned),
				fmt.Sprint(budget), fmt.Sprint(lg * lg),
				fmt.Sprintf("%d/%d", silent, plannedQuiet),
			})
		}
	}
	return t
}

// maxTrainBudget returns the slowest train-cycle budget over all nodes of a
// marked instance: the warm-up unit of the scaling experiments.
func maxTrainBudget(l *verify.Labeled) int {
	max := 0
	for i := range l.Labels {
		for _, lab := range []*train.Labels{&l.Labels[i].Train.Top, &l.Labels[i].Train.Bottom} {
			if b := lab.CycleBudget(); b > max {
				max = b
			}
		}
	}
	return max
}

// LowerBound measures the §9 tradeoff: detection time on the stretched hard
// instance lowerbound.HardFamily(3) for growing τ, and the time × memory
// product (experiment E8).
func LowerBound(taus []int, seed int64) *Table {
	t := &Table{
		Title:  "E8 — §9 stretching: detection time vs τ at O(log n) memory",
		Header: []string{"τ", "n'", "detection rounds", "max label bits", "time × bits"},
		Remarks: []string{
			"The §9 reduction: a τ-time scheme on G′ yields a 1-time scheme on G with O(τ·ℓ) labels, so time × memory = Ω(log² n).",
		},
	}
	g := lowerbound.HardFamily(3)
	rng := rand.New(rand.NewSource(seed))
	for _, tau := range taus {
		st, err := lowerbound.Stretch(g, tau)
		if err != nil {
			continue
		}
		l, err := verify.Mark(st.G)
		if err != nil {
			continue
		}
		r := verify.NewRunner(l, verify.Sync, seed)
		budget := verify.DetectionBudget(st.G.N())
		r.Eng.RunSyncRounds(budget / 4)
		// Corrupt a used piece: detection must flow through the trains and
		// the sampler, whose cycles lengthen with the stretched instance.
		victim := st.PathNodes[0][tau]
		applied := r.InjectKind(victim, verify.FaultStoredPieceW, rng)
		for v := 0; !applied && v < st.G.N(); v++ {
			applied = r.InjectKind(v, verify.FaultStoredPieceW, rng)
		}
		rounds, _, ok := r.RunUntilAlarm(2 * budget)
		bitsMax := l.MaxLabelBits()
		roundsCol, product := fmt.Sprint(rounds), fmt.Sprint(rounds*bitsMax)
		switch {
		case !applied:
			roundsCol, product = "not applied", "-"
		case !ok:
			roundsCol, product = "miss", "-"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(tau), fmt.Sprint(st.G.N()), roundsCol, fmt.Sprint(bitsMax), product,
		})
	}
	return t
}

// experiment is one entry of the menu cmd/experiments offers: the name -exp
// selects it by, its one-line description (the paper's table or experiment
// number first), whether the default suite "all" runs it, and the call at
// its default sizes.
type experiment struct {
	name  string
	doc   string
	inAll bool
	run   func(seed int64) []*Table
}

// menu is the one list of experiments and their default sizes; "all" runs
// the inAll entries in this order.
var menu = []experiment{
	{"table2", "Table 2 — Roots/EndP/Parents/Or_EndP strings on the Figure 1 example, checked against the paper", true,
		func(int64) []*Table { return []*Table{Table2()} }},
	{"table1", "Table 1 — space/time of the self-stabilizing MST vs the baseline classes (measured bits/node and rounds)", true,
		func(seed int64) []*Table { return []*Table{Table1([]int{16, 32, 64}, seed)} }},
	{"detection", "E3 — synchronous detection time (O(log² n))", true,
		func(seed int64) []*Table { return []*Table{DetectionSync([]int{16, 32, 64, 128}, 3, seed)} }},
	{"detectionasync", "E4 — asynchronous detection time (O(Δ·log³ n))", true,
		func(seed int64) []*Table { return []*Table{DetectionAsync([]int{16, 32}, 2, seed)} }},
	{"distance", "E5 — fault-to-alarm distance (O(f·log n))", true,
		func(seed int64) []*Table { return []*Table{DetectionDistance(64, []int{1, 2, 4}, seed)} }},
	{"construction", "E6 — SYNC_MST vs GHS construction rounds and memory", true,
		func(seed int64) []*Table { return []*Table{Construction([]int{16, 32, 64, 128, 256}, seed)} }},
	{"memory", "E7 — label bits: this scheme (O(log n)) vs KK (log² n)", true,
		func(seed int64) []*Table { return []*Table{Memory([]int{16, 64, 256, 1024}, seed)} }},
	{"partitions", "E9 — partition shape (Lemmas 6.4/6.5)", true,
		func(seed int64) []*Table { return []*Table{Partitions([]int{32, 128, 512}, seed)} }},
	{"selfstab", "E12/E13 — stabilization and fault recovery (O(n))", true,
		func(seed int64) []*Table { return []*Table{SelfStabilization([]int{16, 32}, seed)} }},
	{"lowerbound", "E8 — §9 stretched instances: time × memory tradeoff", true,
		func(seed int64) []*Table { return []*Table{LowerBound([]int{1, 2, 3}, seed)} }},
	// Not in the default suite: E3/E12 past n=10⁴ and detection under live
	// churn take minutes of wall clock, and the campaign runs on its own.
	{"detectionscaling", "E3/E12 past n=10⁴ on the incremental in-place engine (minutes of wall clock)", false,
		func(seed int64) []*Table { return []*Table{DetectionScaling([]int{1024, 4096, 16384}, 1, seed)} }},
	{"churnscaling", "E3-churn — detection latency under live topology churn (weight flips, link cut/add through MutateTopology) at n∈{1024,4096,16384}; minutes of wall clock", false,
		func(seed int64) []*Table { return []*Table{ChurnScaling([]int{1024, 4096, 16384}, 1, seed)} }},
	{"campaign", "adversarial fault campaign: corrupted-MST detection latency vs corruption density k per graph family, plus the correlated-scenario matrix (regional outage, fault storm, churn storm, transformer re-stabilization) — every cell cross-checked against the centralized T-lightness and cycle-property oracles", false,
		func(seed int64) []*Table {
			return []*Table{CampaignKSweep(graph.Families(), 256, []int{1, 4, 16, 64}, seed), CampaignScenarios(128, seed)}
		}},
}

// Menu calls f on every experiment in menu order with its name, its
// one-line description and whether "all" runs it: the source of
// cmd/experiments' flag help and usage text.
func Menu(f func(name, doc string, inAll bool)) {
	for _, e := range menu {
		f(e.name, e.doc, e.inAll)
	}
}

// Experiment runs the named menu entry at its default sizes, or for "all"
// the default suite, and reports false for a name the menu lacks.
func Experiment(name string, seed int64) ([]*Table, bool) {
	var tables []*Table
	found := name == "all"
	for _, e := range menu {
		if e.name == name || name == "all" && e.inAll {
			tables = append(tables, e.run(seed)...)
			found = true
		}
	}
	return tables, found
}

func median(xs []int) int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// medianCell and maxCell render a column over the detected trials, "-" when
// none was detected: a row stays in the table when every trial missed.
func medianCell(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprint(median(xs))
}

func maxCell(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprint(slices.Max(xs))
}

// trialCounts renders a detected/applied/trials cell: of the trials run,
// those whose fault was actually injected, and of those, the ones detected
// within the budget.
func trialCounts(detected, applied, trials int) string {
	return fmt.Sprintf("%d/%d/%d", detected, applied, trials)
}
