package core

import (
	"fmt"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
	"ssmst/internal/selfstab"
	"ssmst/internal/verify"
)

// The adversarial campaign driver: one CampaignSpec pins a (graph family,
// corruption scenario) cell and RunCampaign executes it end to end —
// generate, label, inject, detect — cross-checking every distributed
// verdict against both centralized oracles. All randomness derives from
// Spec.Seed through verify.SubSeed, so a failing cell replays byte-for-byte
// from its spec alone.

// Campaign scenario names.
const (
	ScenarioCorrupt    = "corrupt"    // verify labels built for a k-corrupted tree
	ScenarioRegional   = "regional"   // corrupt every node in a BFS ball
	ScenarioStorm      = "storm"      // m faults per round for w rounds
	ScenarioChurnStorm = "churnstorm" // waves of topology churn
	ScenarioRestab     = "restab"     // transformer: regional outage, then re-stabilize
)

// Scenarios lists every campaign scenario.
func Scenarios() []string {
	return []string{ScenarioCorrupt, ScenarioRegional, ScenarioStorm, ScenarioChurnStorm, ScenarioRestab}
}

// CampaignSpec pins one campaign cell. Unused knobs for a scenario are
// ignored (e.g. K matters only to "corrupt").
type CampaignSpec struct {
	Family   string // graph.Families() name
	N        int
	Scenario string
	K        int   // corrupt: number of cycle edits
	Radius   int   // regional/restab: BFS ball radius
	Faults   int   // storm: faults per wave
	Waves    int   // storm/churnstorm: number of waves
	Events   int   // churnstorm: events per wave
	Breaking bool  // churnstorm: include MST-breaking churn kinds
	Seed     int64 // the single recorded seed; everything derives from it
}

// CampaignResult is one executed cell.
type CampaignResult struct {
	Spec         CampaignSpec
	OracleMST    bool  // centralized ground truth for the checked (graph, tree)
	MustDetect   bool  // the network is required to alarm
	Detected     bool  // it did alarm
	DetectRounds int   // rounds to first alarm (0 when silent)
	Budget       int   // the Theorem 8.5 detection budget it must beat
	Victims      int   // faulted nodes / corruption edits / churn events
	RestabRounds int   // restab only: rounds to re-stabilization
	OracleNs     int64 // wall time of the double-oracle cross-check
	Agree        bool  // distributed verdict consistent with the oracles
}

// RunCampaign executes one campaign cell. The seed streams are fixed:
// SubSeed(Seed,0) builds the graph, SubSeed(Seed,1) the corrupted tree,
// SubSeed(Seed,2) the engine, SubSeed(Seed,3) the scenario (with per-wave
// sub-derivation), so changing how one consumer draws randomness never
// shifts another's stream.
func RunCampaign(spec CampaignSpec) (CampaignResult, error) {
	res := CampaignResult{Spec: spec, Budget: verify.DetectionBudget(spec.N)}
	sGraph := verify.SubSeed(spec.Seed, 0)
	sTree := verify.SubSeed(spec.Seed, 1)
	sEngine := verify.SubSeed(spec.Seed, 2)
	sScenario := verify.SubSeed(spec.Seed, 3)

	g, err := graph.ByFamily(spec.Family, spec.N, sGraph)
	if err != nil {
		return res, err
	}

	// crossCheck runs both oracles, errors on any disagreement, and records
	// the centralized verdict and its cost.
	crossCheck := func(cg *graph.Graph, tree []int) (bool, error) {
		start := time.Now()
		isMST, err := oracle.CrossCheck(cg, tree, graph.ByWeight(cg))
		res.OracleNs += time.Since(start).Nanoseconds()
		if err != nil {
			return false, fmt.Errorf("campaign %+v: %w", spec, err)
		}
		return isMST, nil
	}

	switch spec.Scenario {
	case ScenarioCorrupt:
		// The tree itself is the fault: labels are built honestly for a
		// k-corrupted spanning tree, so silence must imply oracle-MST and
		// alarm must imply oracle-not-MST — exact agreement.
		gen, err := graph.NewCorruptedMSTGenerator(g)
		if err != nil {
			return res, err
		}
		tree, err := gen.Generate(spec.K, sTree)
		if err != nil {
			return res, err
		}
		res.Victims = spec.K
		if res.OracleMST, err = crossCheck(g, tree); err != nil {
			return res, err
		}
		res.MustDetect = !res.OracleMST
		l, err := verify.MarkTree(g, tree, false)
		if err != nil {
			return res, err
		}
		r := verify.NewRunner(l, verify.Sync, sEngine)
		if res.MustDetect {
			res.DetectRounds, _, res.Detected = r.RunUntilAlarm(res.Budget)
		} else {
			res.Detected = r.RunQuiet(res.Budget/4) != nil
		}
		res.Agree = res.Detected == res.MustDetect

	case ScenarioRegional, ScenarioStorm:
		// Proof corruption on a correct MST: the tree stays minimal (the
		// oracles keep accepting it) while the labels lie, so agreement
		// means "victims > 0 ⇒ alarm within budget, and the oracles still
		// certify the underlying tree".
		l, err := verify.Mark(g)
		if err != nil {
			return res, err
		}
		if res.OracleMST, err = crossCheck(g, l.Tree.EdgeSet()); err != nil {
			return res, err
		}
		r := verify.NewRunner(l, verify.Sync, sEngine)
		r.Eng.RunSyncRounds(2*maxTrainBudget(l) + 32)
		if spec.Scenario == ScenarioRegional {
			_, victims := r.ApplyRegionalOutage(spec.Radius, sScenario)
			res.Victims = len(victims)
		} else {
			for wave := 0; wave < spec.Waves; wave++ {
				res.Victims += len(r.ApplyFaultStorm(spec.Faults, verify.SubSeed(sScenario, int64(wave))))
				r.Step()
			}
		}
		res.MustDetect = res.Victims > 0
		res.DetectRounds, _, res.Detected = r.RunUntilAlarm(res.Budget)
		res.Agree = res.OracleMST && res.Detected == res.MustDetect

	case ScenarioChurnStorm:
		// Ground truth is the oracle verdict on the POST-churn graph — not
		// the kind mix: a later cut can remove the very edge a weight-break
		// lowered, restoring MST-ness.
		l, err := verify.Mark(g)
		if err != nil {
			return res, err
		}
		r := verify.NewRunner(l, verify.Sync, sEngine)
		r.Eng.RunSyncRounds(2*maxTrainBudget(l) + 32)
		kinds := []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy}
		if spec.Breaking {
			kinds = append(kinds, verify.ChurnWeightBreak, verify.ChurnAddLight)
		}
		for wave := 0; wave < spec.Waves; wave++ {
			res.Victims += len(r.ApplyChurnStorm(spec.Events, kinds, verify.SubSeed(sScenario, int64(wave))))
			r.Step()
		}
		if res.OracleMST, err = crossCheck(r.Eng.G(), r.TreeEdges()); err != nil {
			return res, err
		}
		res.MustDetect = !res.OracleMST
		if res.MustDetect {
			res.DetectRounds, _, res.Detected = r.RunUntilAlarm(res.Budget)
			res.Agree = res.Detected
		} else {
			_, settled := r.RunUntilQuiet(res.Budget, res.Budget/4)
			res.Agree = settled
		}

	case ScenarioRestab:
		// Transformer path: stabilized network, regional outage, detection
		// (a node leaving the check phase), re-stabilization, and an oracle
		// certificate on the rebuilt output.
		l, err := verify.Mark(g)
		if err != nil {
			return res, err
		}
		sr := selfstab.NewRunner(g, spec.N, verify.Sync, sEngine)
		sr.SeedStable(l)
		sr.Eng.RunSyncRounds(2*maxTrainBudget(l) + 32)
		if !sr.Eng.AllDone() {
			return res, fmt.Errorf("campaign %+v: seeded configuration did not hold", spec)
		}
		_, victims := sr.ApplyRegionalOutage(spec.Radius, sScenario)
		res.Victims = len(victims)
		res.MustDetect = res.Victims > 0
		if rounds, ok := sr.RunUntilDetect(res.Budget); ok {
			res.Detected, res.DetectRounds = true, rounds
		}
		if res.Detected {
			res.RestabRounds, _ = sr.RunUntilStable(2 * sr.StabilizationBudget())
		}
		edges, spanning := sr.OutputEdges()
		if !spanning {
			return res, fmt.Errorf("campaign %+v: post-recovery output is not spanning", spec)
		}
		if res.OracleMST, err = crossCheck(sr.Eng.G(), edges); err != nil {
			return res, err
		}
		res.Agree = res.OracleMST && res.Detected == res.MustDetect

	default:
		return res, fmt.Errorf("campaign: unknown scenario %q", spec.Scenario)
	}
	return res, nil
}

// CampaignKSweep is the headline detection-latency table: corruption
// density k vs detection rounds, per family, each row cross-checked against
// both oracles.
func CampaignKSweep(families []string, n int, ks []int, seed int64) *Table {
	t := &Table{
		Title:  "Campaign — corrupted-MST detection latency vs corruption density k (oracle cross-checked)",
		Header: []string{"family", "k", "oracle", "detect rounds", "budget", "agree"},
		Remarks: []string{
			"Labels are built honestly for the k-corrupted tree (no ω̂ override): detection is the verifier catching the tree, not a planted label bug.",
			fmt.Sprintf("Seed streams derive from the recorded campaign seed %d via SubSeed.", seed),
		},
	}
	for _, fam := range families {
		for _, k := range ks {
			res, err := RunCampaign(CampaignSpec{
				Family: fam, N: n, Scenario: ScenarioCorrupt, K: k,
				Seed: verify.SubSeed(seed, int64(n), int64(k)),
			})
			if err != nil {
				t.Rows = append(t.Rows, []string{fam, fmt.Sprint(k), "ERR: " + err.Error(), "-", "-", "-"})
				continue
			}
			verdict := "not-MST"
			if res.OracleMST {
				verdict = "MST"
			}
			detect := "-"
			if res.Detected {
				detect = fmt.Sprint(res.DetectRounds)
			}
			t.Rows = append(t.Rows, []string{
				fam, fmt.Sprint(k), verdict, detect, fmt.Sprint(res.Budget), fmt.Sprint(res.Agree),
			})
		}
	}
	return t
}

// CampaignScenarios sweeps every correlated-fault scenario over every
// family at one size — the robustness matrix.
func CampaignScenarios(n int, seed int64) *Table {
	t := &Table{
		Title:  "Campaign — correlated fault scenarios × graph families (oracle cross-checked)",
		Header: []string{"family", "scenario", "victims", "detect rounds", "restab rounds", "agree"},
		Remarks: []string{
			"regional: radius-2 BFS ball corrupted at once; storm: 3 faults/round for 4 rounds; churnstorm: 3 waves of 2 topology events (full kind menu); restab: transformer recovers from a regional outage.",
			"agree folds in the oracle cross-check: both centralized checkers certify the ground truth the network's verdict is judged against.",
		},
	}
	for _, fam := range graph.Families() {
		for _, sc := range Scenarios() {
			if sc == ScenarioCorrupt {
				continue // covered by the k-sweep table
			}
			res, err := RunCampaign(CampaignSpec{
				Family: fam, N: n, Scenario: sc,
				Radius: 2, Faults: 3, Waves: sc2waves(sc), Events: 2, Breaking: true,
				Seed: verify.SubSeed(seed, int64(n), hashName(sc)),
			})
			if err != nil {
				t.Rows = append(t.Rows, []string{fam, sc, "-", "-", "-", "ERR: " + err.Error()})
				continue
			}
			detect, restab := "-", "-"
			if res.Detected {
				detect = fmt.Sprint(res.DetectRounds)
			}
			if res.RestabRounds > 0 {
				restab = fmt.Sprint(res.RestabRounds)
			}
			t.Rows = append(t.Rows, []string{
				fam, sc, fmt.Sprint(res.Victims), detect, restab, fmt.Sprint(res.Agree),
			})
		}
	}
	return t
}

func sc2waves(sc string) int {
	if sc == ScenarioStorm || sc == ScenarioChurnStorm {
		return 4
	}
	return 0
}

// hashName folds a scenario name into a SubSeed path element.
func hashName(s string) int64 {
	var h int64
	for i := 0; i < len(s); i++ {
		h = h*131 + int64(s[i])
	}
	return h
}
