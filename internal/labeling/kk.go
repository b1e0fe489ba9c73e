package labeling

import "ssmst/internal/hierarchy"

// This file implements the Korman–Kutten 1-time MST verification scheme of
// [54,55] as the paper describes it (§3.1): every node stores, for each of
// the O(log n) levels, the full piece I(Fj(v)) = ID(Fj(v)) ∘ ω(Fj(v)) of
// the fragment containing it. Labels are Θ(log² n) bits — the lower bound
// of [54] shows this is optimal for 1-time verification — and detection
// takes a single time unit. The current paper's contribution is trading
// this detection time (up to O(log² n)) for O(log n)-bit labels; Table 1
// and E7 compare the two schemes' label widths, and the package tests hold
// the one-round checker that shows these labels verify.

// KKLabel is the per-node label of the 1-time scheme: hierarchy strings
// plus the complete per-level piece vector.
type KKLabel struct {
	SP      SPLabel
	Size    SizeLabel
	Strings hierarchy.Strings
	// Pieces[j] is I(Fj(v)); Present[j] says whether v has a level-j
	// fragment (aligned with the '*' entries of the strings).
	Pieces  []hierarchy.Piece
	Present []bool
}

// BitSize measures the label width; the piece vector dominates at
// Θ(log² n) bits.
func (l *KKLabel) BitSize() int {
	total := l.SP.BitSize() + l.Size.BitSize() + l.Strings.BitSize() + len(l.Present)
	for j := range l.Pieces {
		if l.Present[j] {
			total += l.Pieces[j].BitSize()
		}
	}
	return total
}

// MarkKK computes the 1-time scheme's labels from a validated hierarchy.
func MarkKK(h *hierarchy.Hierarchy) []KKLabel {
	t := h.Tree
	n := t.G.N()
	ell := h.Ell()
	sp := MarkSP(t)
	size := MarkSize(t)
	ss := hierarchy.MarkStrings(h)
	out := make([]KKLabel, n)
	for v := 0; v < n; v++ {
		out[v] = KKLabel{
			SP:      sp[v],
			Size:    size[v],
			Strings: ss[v],
			Pieces:  make([]hierarchy.Piece, ell+1),
			Present: make([]bool, ell+1),
		}
		for j := 0; j <= ell; j++ {
			if fi := h.FragAt(v, j); fi >= 0 {
				out[v].Pieces[j] = h.Piece(fi)
				out[v].Present[j] = true
			}
		}
	}
	return out
}
