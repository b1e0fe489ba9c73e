package hierarchy

import (
	"fmt"

	"ssmst/internal/bits"
)

// Entry symbols for the Roots strings (§5.2).
const (
	RootsYes  byte = '1' // v is the root of its level-j fragment
	RootsNo   byte = '0' // v belongs to a level-j fragment but is not its root
	RootsNone byte = '*' // v belongs to no level-j fragment
)

// Entry symbols for the EndP strings (§5.3).
const (
	EndPUp   byte = 'u' // candidate of Fj(v) is the edge to v's parent
	EndPDown byte = 'd' // candidate of Fj(v) is an edge to one of v's children
	EndPNone byte = 'n' // v belongs to Fj(v) but is not the candidate endpoint
	EndPStar byte = '*' // v belongs to no level-j fragment
)

// MaxLevels is the most entries a string holds: ℓ = ⌊log₂ n⌋ ≤ 62 for any
// int n, so ℓ+1 ≤ 63 levels fit one bit plane.
const MaxLevels = 63

// The 2-bit codes of the Roots and EndP symbols, indexed by code. Code 0 is
// the '*' of both strings, so a fresh entry lies in no fragment. Roots
// codes have the membership bit low and the root bit high; code 2 (a root
// outside any fragment) is no symbol and is never stored. EndP codes have
// the candidate-endpoint bit high.
var (
	rootsSyms = [4]byte{RootsNone, RootsNo, 0, RootsYes}
	endPSyms  = [4]byte{EndPStar, EndPNone, EndPUp, EndPDown}
)

// symbols is a string of 2-bit entries, one per level, split over two bit
// planes: the code of entry j is bit j of lo plus twice bit j of hi. Levels
// are below 64, so shifts take j&63, which spares the compiler's handling
// of shift counts past the word.
type symbols struct{ lo, hi uint64 }

func (c *symbols) at(j int) int {
	sh := uint(j) & 63
	return int(c.lo>>sh&1 | (c.hi>>sh&1)<<1)
}

func (c *symbols) set(j, code int) {
	sh := uint(j) & 63
	m := uint64(1) << sh
	c.lo = c.lo&^m | uint64(code&1)<<sh
	c.hi = c.hi&^m | uint64(code>>1&1)<<sh
}

// width is the encoded size of n entries over a k-symbol alphabet.
func (c *symbols) width(n, k int) int { return bits.ForString(n, k) }

// flags is a string of 1-bit entries: bit j is entry j.
type flags uint64

func (f flags) at(j int) bool { return f>>(uint(j)&63)&1 != 0 }

func (f *flags) set(j int, v bool) {
	m := flags(1) << (uint(j) & 63)
	if v {
		*f |= m
	} else {
		*f &^= m
	}
}

// width is the encoded size of n entries, one bit each.
func (f flags) width(n int) int { return n }

// Strings is the per-node §5 data structure: the distributed representation
// of the hierarchy and its candidate function. All four strings have ℓ+1
// entries (levels 0..ℓ), stored at their encoded width in one fixed-size
// value: Roots and EndP at 2 bits per level, Parents and Or_EndP at one bit
// per level. Entries are read and written through the accessors, which
// panic on a level outside [0, Levels()) as a slice index would; entries
// past Levels() are kept zero, so two Strings are equal (==) iff their
// strings are. The zero value holds four empty strings.
type Strings struct {
	levels  uint8
	roots   symbols
	endP    symbols
	parents flags // Parents[j]: edge (parent(v),v) is candidate of parent's level-j fragment
	orEndP  flags // OR over v's fragment-subtree of "is candidate endpoint at level j"
}

// BitSize counts the encoded size: Roots and EndP need 2 bits per entry,
// Parents and Or_EndP one bit per entry — Θ(log n) in total. Each string
// is charged through its own field, so bitsizeaudit ties the sum to the
// fields.
func (s *Strings) BitSize() int {
	n := int(s.levels)
	return s.roots.width(n, 3) + s.endP.width(n, 4) + s.parents.width(n) + s.orEndP.width(n)
}

// Levels returns the number of entries (ℓ+1).
func (s *Strings) Levels() int { return int(s.levels) }

// SetLevels resizes all four strings to k entries: entries at k and past
// are dropped, and new entries read '*', '*', false, false. It panics
// unless 0 ≤ k ≤ MaxLevels.
func (s *Strings) SetLevels(k int) {
	if k < 0 || k > MaxLevels {
		panic(fmt.Sprintf("hierarchy: %d levels outside [0, %d]", k, MaxLevels))
	}
	mask := uint64(1)<<uint(k) - 1
	s.roots = symbols{s.roots.lo & mask, s.roots.hi & mask}
	s.endP = symbols{s.endP.lo & mask, s.endP.hi & mask}
	s.parents &= flags(mask)
	s.orEndP &= flags(mask)
	s.levels = uint8(k)
}

// check panics unless 0 ≤ j < Levels(). The message is formatted only when
// the panic prints, so the accessors stay small enough to inline.
func (s *Strings) check(j int) {
	if uint(j) >= uint(s.levels) {
		panic(levelError{j, int(s.levels)})
	}
}

type levelError struct{ j, levels int }

func (e levelError) Error() string {
	return fmt.Sprintf("hierarchy: level %d outside the strings' %d levels", e.j, e.levels)
}

// RootsAt returns Roots[j].
func (s *Strings) RootsAt(j int) byte {
	s.check(j)
	return rootsSyms[s.roots.at(j)&3]
}

// SetRootsAt sets Roots[j] to sym, which must be a Roots symbol.
func (s *Strings) SetRootsAt(j int, sym byte) {
	s.check(j)
	switch sym {
	case RootsNone:
		s.roots.set(j, 0)
	case RootsNo:
		s.roots.set(j, 1)
	case RootsYes:
		s.roots.set(j, 3)
	default:
		panic(fmt.Sprintf("hierarchy: invalid Roots symbol %q", sym))
	}
}

// EndPAt returns EndP[j].
func (s *Strings) EndPAt(j int) byte {
	s.check(j)
	return endPSyms[s.endP.at(j)&3]
}

// SetEndPAt sets EndP[j] to sym, which must be an EndP symbol.
func (s *Strings) SetEndPAt(j int, sym byte) {
	s.check(j)
	for code, c := range endPSyms {
		if c == sym {
			s.endP.set(j, code)
			return
		}
	}
	panic(fmt.Sprintf("hierarchy: invalid EndP symbol %q", sym))
}

// ParentsAt returns Parents[j].
func (s *Strings) ParentsAt(j int) bool {
	s.check(j)
	return s.parents.at(j)
}

// SetParentsAt sets Parents[j].
func (s *Strings) SetParentsAt(j int, v bool) {
	s.check(j)
	s.parents.set(j, v)
}

// OrEndPAt returns Or_EndP[j].
func (s *Strings) OrEndPAt(j int) bool {
	s.check(j)
	return s.orEndP.at(j)
}

// SetOrEndPAt sets Or_EndP[j].
func (s *Strings) SetOrEndPAt(j int, v bool) {
	s.check(j)
	s.orEndP.set(j, v)
}

// InFragmentAt reports whether the node belongs to a level-j fragment
// (false for a level outside the strings).
func (s *Strings) InFragmentAt(j int) bool {
	return uint(j) < uint(s.levels) && s.roots.lo>>(uint(j)&63)&1 != 0
}

// Members returns the levels at which the node belongs to a fragment as a
// mask: bit j is set iff Roots[j] ≠ '*'.
func (s *Strings) Members() uint64 { return s.roots.lo }

// levelSets are the strings' entries as sets of levels, bit j standing for
// level j: the form in which the local checks evaluate a condition at every
// level at once.
type levelSets struct {
	yes, no, star             uint64 // Roots = '1', '0', '*'
	up, down, endpoint, estar uint64 // EndP = 'u', 'd', 'u' or 'd', '*'
	parents, orEndP           uint64
}

func (s *Strings) sets() levelSets {
	all := uint64(1)<<uint(s.levels) - 1
	lo, hi := s.endP.lo, s.endP.hi
	return levelSets{
		yes: s.roots.hi, no: s.roots.lo &^ s.roots.hi, star: all &^ s.roots.lo,
		up: hi &^ lo, down: hi & lo, endpoint: hi, estar: all &^ (lo | hi),
		parents: uint64(s.parents), orEndP: uint64(s.orEndP),
	}
}

// MarkStrings computes the marker's Strings for every node from a validated
// hierarchy (the "correct instance" labels of §5.2–5.3). One pass in reverse
// DFS order fills each node after its children, so Or_EndP aggregates
// bottom-up within each fragment.
func MarkStrings(h *Hierarchy) []Strings {
	t := h.Tree
	n := t.G.N()
	ell := h.Ell()
	out := make([]Strings, n)
	order := t.DFSOrder()
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		s := &out[v]
		s.SetLevels(ell + 1)
		for j := 0; j <= ell; j++ {
			fi := h.FragAt(v, j)
			if fi < 0 {
				continue // '*' in Roots and EndP
			}
			f := &h.Frags[fi]
			if f.Root == v {
				s.SetRootsAt(j, RootsYes)
			} else {
				s.SetRootsAt(j, RootsNo)
			}
			switch {
			case f.Cand < 0 || f.CandInside != v:
				s.SetEndPAt(j, EndPNone)
			case t.G.Other(f.Cand, v) == t.Parent[v]:
				s.SetEndPAt(j, EndPUp)
			default:
				s.SetEndPAt(j, EndPDown)
			}
			or := s.EndPAt(j) != EndPNone
			for _, c := range t.Children(v) {
				if h.FragAt(c, j) == fi && out[c].OrEndPAt(j) {
					or = true
				}
			}
			s.SetOrEndPAt(j, or)
		}
	}
	// Parents[j] at x: (y,x) is the candidate of the level-j fragment
	// containing y, where y = parent(x).
	for i := range h.Frags {
		f := &h.Frags[i]
		if f.Cand < 0 {
			continue
		}
		e := t.G.Edge(f.Cand)
		in, outNode := f.CandInside, e.U
		if outNode == in {
			outNode = e.V
		}
		if t.Parent[outNode] == in {
			// Candidate goes down from the inside endpoint to its child.
			out[outNode].SetParentsAt(f.Level, true)
		}
	}
	return out
}
