package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/oracle"
)

// FuzzWorklistParity decodes arbitrary bytes into a fault + churn + storm
// schedule (the campaign subsystem's scenario vocabulary) and drives the
// worklist engine against the dense coast reference through it, checking
// per-round alarm parity, full-state parity at every stretch end, and —
// when the schedule leaves the verified tree a non-MST — that both engines
// detect it within the Theorem 8.5 budget, with the centralized oracles
// (internal/oracle.CrossCheck) supplying the ground truth. Both engines
// start awake, or both from the quiescence seed when the first byte's top
// bit is set; the op decoding reads that byte mod 4, so the bit changes
// nothing else, and every input without it keeps the awake start. The
// seed corpus mirrors the campaign scenarios: quiet/restabilization,
// single faults, storm waves, churn storms, and mixed bursts, each from
// the awake start and then, top bit set, from the seed.
func FuzzWorklistParity(f *testing.F) {
	for _, start := range []byte{0, fuzzSeededStart} {
		f.Add([]byte{start, 40})                                               // restab: quiet coasting only
		f.Add([]byte{start | 1, 5, 2, 0, 30})                                  // corrupt: one fault, quiet tail
		f.Add([]byte{start | 3, 2, 9, 0, 40, 3, 1, 17})                        // storm: two fault waves
		f.Add([]byte{start | 2, 0, 0, 24, 2, 3, 0, 24})                        // churnstorm: cut + weight churn
		f.Add([]byte{start | 1, 7, 4, 0, 48, 2, 4, 0, 48, 3, 3, 5})            // mixed campaign burst
		f.Add([]byte{start | 2, 3, 0, 8, 2, 4, 0, 8, 1, 11, 0, 3, 2, 6, 0, 8}) // MST-breaking churn mix
	}
	f.Fuzz(fuzzWorklistParity)
}

// fuzzSeededStart is the first-byte bit that starts both engines from the
// quiescence seed.
const fuzzSeededStart = 0x80

func fuzzWorklistParity(t *testing.T, data []byte) {
	if len(data) > 48 {
		data = data[:48] // bound the schedule; the tail is ignored, not invalid
	}
	// The default (full-sweep) horizon is used deliberately: the oracle
	// assertion below depends on it — a short override can re-freeze a
	// melted region before its sweep reaches a latent violation.
	seeded := len(data) > 0 && data[0]&fuzzSeededStart != 0
	dense, wl := parityRunners(t, graph.RandomConnected(32, 72, 99), 17, false, seeded)
	g := dense.Eng.G()
	d := &parityDriver{t: t, g: g, l: dense.Labeled, dense: dense, wl: wl}

	// Settle into the coasting regime so every schedule exercises melt,
	// re-detection, and re-freezing rather than a fully-awake network.
	// (LastActive is 0 before any round runs, so step first, then test.)
	for i := 0; i < 200; i++ {
		d.step(16, false)
		if wl.Eng.LastActive() == 0 {
			break
		}
	}

	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	churnMenu := []ChurnKind{ChurnWeightKeep, ChurnCut, ChurnAddHeavy, ChurnWeightBreak, ChurnAddLight}
	for op := 0; op < 12; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch b % 4 {
		case 0: // quiet stretch, endpoint-only compare: real lazy replay
			k, _ := next()
			d.step(int(k%48)+1, false)
		case 1: // one identical fault into both engines
			vb, _ := next()
			kb, _ := next()
			rng := rand.New(rand.NewSource(SubSeed(int64(vb), int64(kb))))
			if d.inject(int(vb)%g.N(), FaultKind(int(kb)%int(numFaultKinds)), rng) {
				d.step(8, true)
			}
		case 2: // churn event, applied to both live graphs
			kb, _ := next()
			rng := rand.New(rand.NewSource(SubSeed(int64(kb), 2)))
			if d.churn(churnMenu[int(kb)%len(churnMenu)], rng) {
				d.step(8, true)
			}
		case 3: // campaign storm wave, replayed per engine from one seed
			mb, _ := next()
			sb, _ := next()
			m := int(mb%3) + 1
			seed := SubSeed(int64(sb), 3)
			va := dense.ApplyFaultStorm(m, seed)
			vb := wl.ApplyFaultStorm(m, seed)
			if !reflect.DeepEqual(va, vb) {
				t.Fatalf("op %d: storm victims diverged: dense %v, worklist %v", op, va, vb)
			}
			if len(va) > 0 {
				d.lastMutation = d.round
			}
			compareWorklist(t, d.tag()+" (post-storm)", g, dense, wl)
			d.step(8, true)
		}
	}
	compareWorklist(t, d.tag()+" (schedule end)", d.g, dense, wl)

	// Ground truth: if the schedule broke MST-hood of the verified tree,
	// both engines must say "no" within the detection budget. Alarm parity
	// stays enforced round by round on the way there.
	isMST, err := oracle.CrossCheck(dense.Eng.G(), dense.TreeEdges(), graph.ByWeight(dense.Eng.G()))
	if err != nil {
		t.Fatalf("oracle cross-check: %v", err)
	}
	if !isMST {
		// Detection may already have happened and washed out: a melt-wave
		// alarm after the last mutation counts (the verifier's contract is
		// that some node says "no", not that it says it forever).
		detected := false
		for _, r := range d.alarmRec {
			if r >= d.lastMutation {
				detected = true
				break
			}
		}
		budget := 2 * DetectionBudget(g.N())
		for i := 0; i < budget && !detected; i++ {
			dense.Step()
			wl.Step()
			_, da := dense.Eng.AnyAlarm()
			_, wa := wl.Eng.AnyAlarm()
			if da != wa {
				t.Fatalf("detection round %d: alarm flag diverged: dense %v, worklist %v", i+1, da, wa)
			}
			detected = da
		}
		if !detected {
			t.Fatalf("oracles reject the tree but neither engine alarmed within %d rounds", budget)
		}
		compareWorklist(t, "post-detection", d.g, dense, wl)
	}
}
