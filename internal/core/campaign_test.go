package core

import (
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

// TestCampaignSmoke is the acceptance gate: every (family × scenario) cell
// runs with both oracle cross-checks on and zero disagreements — silence
// implies oracle-MST, alarm implies oracle-not-MST within the Theorem 8.5
// budget. CI runs it under -race. Every failure message carries the cell's
// spec, which replays the run byte-for-byte.
func TestCampaignSmoke(t *testing.T) {
	const seed = int64(2026)

	// Corrupt: the k-sweep, including k=0 (an uncorrupted MST must stay
	// silent) and the dense k=n/4 point.
	const nCorrupt = 128
	for _, fam := range graph.Families() {
		for _, k := range []int{0, 1, 4, 16, nCorrupt / 4} {
			spec := CampaignSpec{
				Family: fam, N: nCorrupt, Scenario: ScenarioCorrupt, K: k,
				Seed: verify.SubSeed(seed, int64(k)),
			}
			res, err := RunCampaign(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if (k == 0) != res.OracleMST {
				t.Errorf("%+v: oracle says MST=%v for k=%d", spec, res.OracleMST, k)
			}
			if !res.Agree {
				t.Errorf("%+v: network verdict disagrees with the oracles (detected=%v mustDetect=%v)",
					spec, res.Detected, res.MustDetect)
			}
			if res.Detected && res.DetectRounds > res.Budget {
				t.Errorf("%+v: detection in %d rounds exceeds budget %d", spec, res.DetectRounds, res.Budget)
			}
		}
	}

	// Correlated scenarios: regional outage, fault storm, churn storm
	// (preserving-only and full menu).
	const nScenario = 96
	for _, fam := range graph.Families() {
		for _, spec := range []CampaignSpec{
			{Family: fam, N: nScenario, Scenario: ScenarioRegional, Radius: 2,
				Seed: verify.SubSeed(seed, hashName(ScenarioRegional))},
			{Family: fam, N: nScenario, Scenario: ScenarioStorm, Faults: 3, Waves: 4,
				Seed: verify.SubSeed(seed, hashName(ScenarioStorm))},
			{Family: fam, N: nScenario, Scenario: ScenarioChurnStorm, Events: 2, Waves: 3, Breaking: false,
				Seed: verify.SubSeed(seed, hashName(ScenarioChurnStorm))},
			{Family: fam, N: nScenario, Scenario: ScenarioChurnStorm, Events: 2, Waves: 3, Breaking: true,
				Seed: verify.SubSeed(seed, hashName(ScenarioChurnStorm), 1)},
		} {
			res, err := RunCampaign(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if !res.Agree {
				t.Errorf("%+v: network verdict disagrees with the oracles (oracleMST=%v detected=%v mustDetect=%v victims=%d)",
					spec, res.OracleMST, res.Detected, res.MustDetect, res.Victims)
			}
			if spec.Scenario != ScenarioChurnStorm && res.Victims == 0 {
				t.Errorf("%+v: scenario applied no faults", spec)
			}
		}
	}

	// Restab: the transformer detects a regional outage and rebuilds an
	// oracle-certified MST. Smaller n — this simulates full epochs.
	const nRestab = 48
	for _, fam := range graph.Families() {
		spec := CampaignSpec{
			Family: fam, N: nRestab, Scenario: ScenarioRestab, Radius: 2,
			Seed: verify.SubSeed(seed, hashName(ScenarioRestab)),
		}
		res, err := RunCampaign(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !res.Agree {
			t.Errorf("%+v: recovery not oracle-certified (oracleMST=%v detected=%v restab=%d)",
				spec, res.OracleMST, res.Detected, res.RestabRounds)
		}
		if !res.Detected || res.RestabRounds == 0 {
			t.Errorf("%+v: outage of %d nodes not detected+recovered (detected=%v restab=%d)",
				spec, res.Victims, res.Detected, res.RestabRounds)
		}
	}
}

// TestCampaignReproducible: the same spec replays to the identical result —
// the satellite seed-discipline contract at the driver level.
func TestCampaignReproducible(t *testing.T) {
	spec := CampaignSpec{
		Family: "powerlaw", N: 96, Scenario: ScenarioStorm, Faults: 3, Waves: 4,
		Seed: verify.SubSeed(7, 99),
	}
	a, err := RunCampaign(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	b, err := RunCampaign(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	a.OracleNs, b.OracleNs = 0, 0 // wall time is the only nondeterministic field
	if a != b {
		t.Errorf("spec %+v not reproducible:\n  %+v\nvs\n  %+v", spec, a, b)
	}
}

// TestCampaignRejectsUnknownScenario: the driver fails loudly on a typo'd
// scenario instead of silently recording an empty cell.
func TestCampaignRejectsUnknownScenario(t *testing.T) {
	if _, err := RunCampaign(CampaignSpec{Family: "random", N: 32, Scenario: "meteor", Seed: 1}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestDetectionRoundsGolden pins detection latencies that are fully
// deterministic in their seeds: a live weight flip at n=4096, and the
// corrupted-MST k-sweep at n=1024 on every family (graph, corruption and
// engine all derive from the spec seed). A change to any of these numbers
// is a behaviour change of the verifier, not noise.
func TestDetectionRoundsGolden(t *testing.T) {
	if d, ok := MeasureChurnDetection(4096, verify.ChurnWeightBreak, 1); !ok || !d.Detected || d.DetectRounds != 1 {
		t.Errorf("weight-break at n=4096: planned=%v detected=%v in %d rounds, want 1", ok, d.Detected, d.DetectRounds)
	}

	const n = 1024
	ks := []int{1, 4, 16, n / 4}
	want := map[string][]int{
		"random":    {44, 279, 2, 2},
		"powerlaw":  {12, 2, 2, 2},
		"geometric": {5, 4, 13, 2},
		"highgirth": {487, 4, 2, 2},
	}
	for _, fam := range graph.Families() {
		rounds, ok := want[fam]
		if !ok {
			t.Errorf("family %q has no golden row", fam)
			continue
		}
		for i, k := range ks {
			spec := CampaignSpec{
				Family: fam, N: n, Scenario: ScenarioCorrupt, K: k,
				Seed: verify.SubSeed(1, n, int64(k)),
			}
			res, err := RunCampaign(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if !res.Agree || !res.Detected || res.DetectRounds != rounds[i] {
				t.Errorf("%s k=%d: agree=%v detected=%v in %d rounds, want %d",
					fam, k, res.Agree, res.Detected, res.DetectRounds, rounds[i])
			}
		}
	}
}
