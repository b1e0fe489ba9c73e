package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ssmst/internal/graph"
	"ssmst/internal/selfstab"
	"ssmst/internal/verify"
)

// TestDetectionTablesCountEveryTrial: at seed 1 one of E3's three n=32
// injections, and one of E4's two, picks a victim that stores no piece, so
// the fault does not apply. The row stays in the table and its counts
// column says so, instead of a median over fewer trials than were run.
func TestDetectionTablesCountEveryTrial(t *testing.T) {
	for _, c := range []struct {
		tab  *Table
		want string
	}{
		{DetectionSync([]int{32}, 3, 1), "2/2/3"},
		{DetectionAsync([]int{32}, 2, 1), "1/1/2"},
	} {
		if len(c.tab.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.tab.Title, len(c.tab.Rows))
		}
		row := c.tab.Rows[0]
		if len(row) != len(c.tab.Header) || c.tab.Header[4] != "detected/applied/trials" {
			t.Fatalf("%s: row %v does not match header %v", c.tab.Title, row, c.tab.Header)
		}
		if row[4] != c.want {
			t.Errorf("%s: counts %s, want %s", c.tab.Title, row[4], c.want)
		}
	}
}

// TestDetectionScalingTable: the E3/E12 table at test scale keeps one row
// per size with both arms' counts, whatever was detected.
func TestDetectionScalingTable(t *testing.T) {
	tab := DetectionScaling([]int{64}, 2, 1)
	if len(tab.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if len(row) != len(tab.Header) {
		t.Fatalf("row %v does not match header %v", row, tab.Header)
	}
	for i, h := range tab.Header {
		if !strings.HasSuffix(h, "detected/applied/trials") {
			continue
		}
		var detected, applied, trials int
		if _, err := fmt.Sscanf(row[i], "%d/%d/%d", &detected, &applied, &trials); err != nil ||
			trials != 2 || applied > trials || detected > applied {
			t.Errorf("%s = %q, want detected ≤ applied ≤ 2 trials", h, row[i])
		}
	}
}

// TestMemoryGolden pins the bit widths Theorem 8.5's memory measure reports
// at seed 1: E7's two label columns and Table 1's measured bits/node of the
// self-stabilizing transformer. A change to any BitSize (a label, a piece, a
// verifier or transformer field) moves them; an intended one re-records
// them here.
func TestMemoryGolden(t *testing.T) {
	e7 := Memory([]int{16, 64, 256, 1024}, 1)
	var got []string
	for _, row := range e7.Rows {
		got = append(got, row[0]+":"+row[1]+"/"+row[2])
	}
	if want := "16:153/123 64:214/189 256:267/260 1024:302/334"; strings.Join(got, " ") != want {
		t.Errorf("E7 n:this/KK bits = %s, want %s", strings.Join(got, " "), want)
	}
	got = got[:0]
	for _, row := range Table1([]int{16, 32, 64}, 1).Rows {
		if row[0] == "this paper (selfstab)" {
			got = append(got, row[1]+":"+row[2])
		}
	}
	if want := "16:270 32:306 64:336"; strings.Join(got, " ") != want {
		t.Errorf("Table 1 n:bits = %s, want %s", strings.Join(got, " "), want)
	}
}

// TestRecoveryCellOutcomes: E13's recovery cell tells its three outcomes
// apart — the rounds to re-stabilize, "not applied" when there was no
// stabilized network to fault, and "DNF" when recovery missed its budget.
func TestRecoveryCellOutcomes(t *testing.T) {
	g := graph.RandomConnected(16, 32, 17)
	stable := func() *selfstab.Runner {
		r := selfstab.NewRunner(g, g.N(), verify.Sync, 1)
		if _, ok := r.RunUntilStable(r.StabilizationBudget()); !ok {
			t.Fatal("clean start missed its budget")
		}
		return r
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }

	r := stable()
	got := recoveryCell(r, rng(), r.StabilizationBudget())
	if rounds, err := strconv.Atoi(got); err != nil || rounds < 2 || !r.OutputIsMST() {
		t.Errorf("recovered: recovery cell %q, output MST %v; want a round count", got, r.OutputIsMST())
	}
	if got := recoveryCell(stable(), rng(), 1); got != "DNF" {
		t.Errorf("one-round budget: recovery cell %q, want DNF", got)
	}
	fresh := selfstab.NewRunner(g, g.N(), verify.Sync, 1)
	if got := recoveryCell(fresh, rng(), fresh.StabilizationBudget()); got != "not applied" {
		t.Errorf("never stabilized: recovery cell %q, want %q", got, "not applied")
	}
}

// TestMenuDescribesEveryEntry: cmd/experiments builds its flag help and
// usage text from Menu alone, so every entry needs a unique name that is
// not "all" and a non-empty one-line description, and Experiment must know
// no name the menu lacks.
func TestMenuDescribesEveryEntry(t *testing.T) {
	seen := map[string]bool{"all": true}
	Menu(func(name, doc string, _ bool) {
		if seen[name] {
			t.Errorf("menu name %q repeated or reserved", name)
		}
		seen[name] = true
		if doc == "" || strings.Contains(doc, "\n") {
			t.Errorf("menu entry %q: description %q is not one line", name, doc)
		}
	})
	if len(seen) != len(menu)+1 {
		t.Fatalf("Menu listed %d names for %d entries", len(seen)-1, len(menu))
	}
	if _, ok := Experiment("no-such-experiment", 1); ok {
		t.Fatal("Experiment accepted a name the menu lacks")
	}
}
