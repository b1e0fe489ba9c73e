package core

import (
	"fmt"
	"strings"
	"testing"
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
