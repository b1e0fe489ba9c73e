package core

import (
	"testing"

	"ssmst/internal/verify"
)

// TestMeasureChurnDetection smoke-tests the measurement the churnscaling
// table and TestDetectionRoundsGolden are built on: breaking kinds are
// detected within the budget, preserving kinds stay silent.
func TestMeasureChurnDetection(t *testing.T) {
	for _, kind := range []verify.ChurnKind{verify.ChurnWeightBreak, verify.ChurnAddLight} {
		d, ok := MeasureChurnDetection(96, kind, 3)
		if !ok {
			t.Fatalf("%v: no event planned", kind)
		}
		if !d.Detected {
			t.Fatalf("%v (%v): never detected", kind, d.Event)
		}
		if budget := verify.DetectionBudget(96); d.DetectRounds > budget {
			t.Fatalf("%v: %d rounds exceeds the budget %d", kind, d.DetectRounds, budget)
		}
	}
	for _, kind := range []verify.ChurnKind{verify.ChurnWeightKeep, verify.ChurnCut, verify.ChurnAddHeavy} {
		d, ok := MeasureChurnDetection(96, kind, 5)
		if !ok {
			t.Fatalf("%v: no event planned", kind)
		}
		if d.Detected {
			t.Fatalf("MST-preserving %v (%v) raised an alarm", kind, d.Event)
		}
	}
}

// TestChurnScalingTable: the table assembles rows for both breaking kinds
// at small sizes (the cmd/experiments churnscaling path, shrunk to test
// scale).
func TestChurnScalingTable(t *testing.T) {
	tab := ChurnScaling([]int{48, 96}, 1, 1)
	if len(tab.Rows) == 0 {
		t.Fatal("churn scaling produced no rows")
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Fatalf("row %v does not match header %v", r, tab.Header)
		}
	}
}
