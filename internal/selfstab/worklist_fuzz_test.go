package selfstab

import (
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/verify"
)

// FuzzTransformerParity decodes arbitrary bytes into a schedule of events
// and steps the transformer on a dense engine and on a worklist engine
// through it (parityPair), comparing them after every round. The first
// byte picks the start — clean (0), scrambled (1) or seeded into the check
// phase (2), by its value mod 3. Each following op byte, mod 9, is one of:
// a compared stretch (0), a lazy stretch (1), a label fault (2), a
// regional outage (3), a churn event (4), a pulse skew (5) or an epoch
// bump (7) at one node, a run to stability (6), or a mid-epoch weight
// change through MutateTopology (8); the byte after it parametrizes the
// op. Every schedule must end stable with the MST.
func FuzzTransformerParity(f *testing.F) {
	f.Add([]byte{0, 6, 0})                              // clean start to stability
	f.Add([]byte{1, 6, 0, 1, 90})                       // scrambled start, then a lazy stretch
	f.Add([]byte{2, 2, 3, 0, 40, 3, 1, 6, 0})           // seeded: label fault, outage, rebuild
	f.Add([]byte{2, 4, 3, 6, 0, 4, 1, 6, 0})            // MST-breaking and -preserving churn
	f.Add([]byte{0, 0, 200, 5, 7, 1, 120, 7, 4, 6, 0})  // skew and epoch bump mid-epoch
	f.Add([]byte{0, 1, 255, 1, 255, 5, 3, 6, 0})        // a long lazy stretch into the build phase
	f.Add([]byte{0, 1, 255, 8, 3, 1, 200, 8, 12, 6, 0}) // weight changes in the build phase
	f.Fuzz(fuzzTransformerParity)
}

func fuzzTransformerParity(t *testing.T, data []byte) {
	if len(data) > 24 {
		data = data[:24] // bound the schedule; the tail is ignored, not invalid
	}
	start := byte(0)
	if len(data) > 0 {
		start, data = data[0], data[1:]
	}
	g := graph.RandomConnected(10, 22, 5)
	p := newParityPair(t, g, 3, false)
	n := g.N()
	switch start % 3 {
	case 1:
		p.both("scramble", func(r *Runner) any {
			r.Scramble(rand.New(rand.NewSource(int64(start))))
			return nil
		})
	case 2:
		l, err := verify.Mark(g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		p.both("seed", func(r *Runner) any { r.SeedStable(l); return nil })
	}
	budget := 2 * p.dense.StabilizationBudget()
	churnMenu := []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy,
		verify.ChurnWeightBreak, verify.ChurnAddLight}
	for len(data) > 0 {
		op, arg := data[0], byte(0)
		if len(data) > 1 {
			arg = data[1]
		}
		data = data[min(2, len(data)):]
		v := int(arg) % n
		rng := func() *rand.Rand { return rand.New(rand.NewSource(int64(op)<<8 | int64(arg))) }
		switch op % 9 {
		case 0:
			p.step(int(arg)+1, true)
		case 1:
			p.step(2*int(arg)+1, false)
		case 2:
			p.both("label fault", func(r *Runner) any { return r.InjectLabelFault(v, rng()) })
		case 3:
			p.both("regional outage", func(r *Runner) any {
				c, victims := r.ApplyRegionalOutage(int(arg)%2, int64(arg))
				return []any{c, victims}
			})
		case 4:
			p.both("churn", func(r *Runner) any {
				ev, ok := r.ApplyChurn(churnMenu[int(arg)%len(churnMenu)], rng())
				return []any{ev, ok}
			})
		case 5, 7:
			p.both("skew", func(r *Runner) any {
				st := r.Eng.State(v).Clone().(*SState)
				if op%9 == 5 {
					st.Pulse -= 1 + int(arg)%5
				} else {
					st.Epoch++
				}
				r.Eng.SetState(v, st)
				return nil
			})
		case 6:
			p.untilStable(budget)
		case 8:
			p.both("weight change", func(r *Runner) any {
				return r.Eng.MutateTopology(func(g *graph.Graph) error {
					w := graph.Weight(int(arg) + 1)
					for e := 0; e < g.M(); e++ {
						w = max(w, g.Edge(e).W+graph.Weight(arg)+1)
					}
					return g.SetWeight(int(arg)%g.M(), w)
				})
			})
		}
		p.step(1, true)
	}
	p.untilStable(budget)
}
