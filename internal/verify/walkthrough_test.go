package verify

import (
	"math/rand"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/train"
)

// TestFigures4to9Walkthrough reproduces the protocol scenario of Figures
// 4–9 (§7.2.2) on a live asynchronous run: a client node v holding a piece
// in Ask (Fig 4) either sees the matching piece at a server immediately
// (Fig 5), or files a request Want = (u, j) (Figs 6–7) while both trains
// keep moving (Fig 8), until the server's train delivers the wanted piece
// and the comparison completes (Fig 9). We assert each stage is actually
// exercised: Ask captures happen, Wants are filed and later cleared with
// the server cursor advancing, servers hold their Down buffer while wanted,
// and no false alarm ever fires.
func TestFigures4to9Walkthrough(t *testing.T) {
	g := graph.RandomConnected(24, 60, 21)
	l, err := Mark(g)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Async, 9)
	r.Eng.Jitter = 0.3

	asks := 0          // Fig 4: pieces captured into Ask
	wantsFiled := 0    // Figs 6–7: requests filed
	wantsResolved := 0 // Fig 9: a filed want cleared with cursor advance
	holdsObserved := 0 // Fig 8/9: a server keeping its Down while wanted
	prevWant := make([]train.Want, g.N())
	prevCur := make([]int, g.N())
	prevAskValid := make([]bool, g.N())
	indexOf := make(map[graph.NodeID]int, g.N())
	for v := 0; v < g.N(); v++ {
		indexOf[g.ID(v)] = v
	}

	budget := DetectionBudget(g.N())
	for round := 0; round < budget; round++ {
		r.Step()
		if v, bad := r.Eng.AnyAlarm(); bad {
			t.Fatalf("false alarm at node %d round %d", v, round)
		}
		for v := 0; v < g.N(); v++ {
			st := r.Eng.State(v).(*VState)
			if st.AskValid && !prevAskValid[v] {
				asks++
			}
			if st.Want.Valid && !prevWant[v].Valid {
				wantsFiled++
			}
			if prevWant[v].Valid && !st.Want.Valid && int(st.ServerCur) != prevCur[v] {
				wantsResolved++
			}
			// A server holding: some neighbour wants exactly what this node
			// shows (valid member piece of the wanted level).
			if prevWant[v].Valid {
				if server, ok := indexOf[prevWant[v].ServerID]; ok {
					ss := r.Eng.State(server).(*VState)
					for _, d := range []train.Down{ss.TopS.Down, ss.BotS.Down} {
						if d.Valid && d.P.ID.Level == int(prevWant[v].Level) {
							holdsObserved++
						}
					}
				}
			}
			prevWant[v] = st.Want
			prevCur[v] = int(st.ServerCur)
			prevAskValid[v] = st.AskValid
		}
		if asks > 50 && wantsFiled > 5 && wantsResolved > 5 && holdsObserved > 5 {
			t.Logf("walkthrough complete at round %d: %d asks, %d wants filed, %d resolved, %d holds",
				round, asks, wantsFiled, wantsResolved, holdsObserved)
			return
		}
	}
	t.Fatalf("scenario stages not all exercised: asks=%d filed=%d resolved=%d holds=%d",
		asks, wantsFiled, wantsResolved, holdsObserved)
}

// TestMultiFaultDetectionDistance (E5): with f simultaneous faults, every
// fault has an alarming node within O(f log n) of it once the system has
// fully reacted.
func TestMultiFaultDetectionDistance(t *testing.T) {
	g := graph.Grid(8, 8, 31)
	n := g.N()
	lam := train.LambdaThreshold(n)
	rng := rand.New(rand.NewSource(41))
	for _, f := range []int{2, 4} {
		l, err := Mark(g)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(l, Sync, int64(f))
		budget := DetectionBudget(n)
		r.Eng.RunSyncRounds(budget / 4)
		seen := map[int]bool{}
		var faults []int
		for len(faults) < f {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			if r.InjectKind(v, FaultStoredPieceW, rng) {
				seen[v] = true
				faults = append(faults, v)
			}
		}
		// Let the full sweep complete so every fault's alarm has fired.
		// Alarm outputs are recomputed every round, so they pulse once per
		// Ask sweep; accumulate the alarming nodes over a full budget.
		rounds, first, ok := r.RunUntilAlarm(2 * budget)
		if !ok {
			t.Fatalf("f=%d: no detection", f)
		}
		alarmSet := map[int]bool{}
		for _, a := range first {
			alarmSet[a] = true
		}
		for i := 0; i < budget; i++ {
			r.Eng.StepSync()
			for _, a := range r.Eng.AlarmNodes() {
				alarmSet[a] = true
			}
		}
		alarms := make([]int, 0, len(alarmSet))
		for a := range alarmSet {
			alarms = append(alarms, a)
		}
		for i, d := range DetectionDistance(g, faults, alarms) {
			if d < 0 || d > 4*f*lam {
				t.Errorf("f=%d: fault %d detected at distance %d > 4fλ=%d", f, i, d, 4*f*lam)
			}
		}
		t.Logf("f=%d: first detection after %d rounds, %d alarming nodes", f, rounds, len(alarms))
	}
}

// TestAsyncRejectsNonMST: soundness under the asynchronous daemon — a
// non-minimal spanning tree is detected despite arbitrary interleavings.
func TestAsyncRejectsNonMST(t *testing.T) {
	g := graph.RandomConnected(16, 40, 51)
	mst, err := graph.Kruskal(g, graph.ByWeight(g))
	if err != nil {
		t.Fatal(err)
	}
	inTree := map[int]bool{}
	for _, e := range mst {
		inTree[e] = true
	}
	var alt []int
	for e := 0; e < g.M() && alt == nil; e++ {
		if inTree[e] {
			continue
		}
		ed := g.Edge(e)
		tr, _ := graph.TreeFromEdges(g, mst, ed.U)
		for x := ed.V; x != ed.U; x = tr.Parent[x] {
			pe := tr.ParentEdge[x]
			if g.Edge(pe).W < ed.W {
				for _, te := range mst {
					if te != pe {
						alt = append(alt, te)
					}
				}
				alt = append(alt, e)
				break
			}
		}
	}
	if alt == nil {
		t.Skip("no heavier swap available on this seed")
	}
	l, err := MarkTree(g, alt, false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l, Async, 7)
	r.Eng.Jitter = 0.3
	rounds, nodes, ok := r.RunUntilAlarm(4 * DetectionBudget(g.N()))
	if !ok {
		t.Fatal("async verifier accepted a non-MST")
	}
	t.Logf("async rejection after %d time units at %v", rounds, nodes)
}
