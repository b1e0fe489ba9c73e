package hierarchy

import "ssmst/internal/bits"

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

// Strings is the per-node §5 data structure: the distributed representation
// of the hierarchy and its candidate function. All four strings have ℓ+1
// entries (levels 0..ℓ).
type Strings struct {
	Roots   []byte
	EndP    []byte
	Parents []bool // Parents[j]: edge (parent(v),v) is candidate of parent's level-j fragment
	OrEndP  []bool // OR over v's fragment-subtree of "is candidate endpoint at level j"
}

// Clone returns a deep copy.
func (s *Strings) Clone() *Strings {
	return &Strings{
		Roots:   append([]byte(nil), s.Roots...),
		EndP:    append([]byte(nil), s.EndP...),
		Parents: append([]bool(nil), s.Parents...),
		OrEndP:  append([]bool(nil), s.OrEndP...),
	}
}

// BitSize counts the encoded size: Roots and EndP need 2 bits per entry,
// Parents and Or_EndP one bit per entry — Θ(log n) in total.
func (s *Strings) BitSize() int {
	return bits.ForString(len(s.Roots), 3) +
		bits.ForString(len(s.EndP), 4) +
		len(s.Parents) + len(s.OrEndP)
}

// Levels returns the number of entries (ℓ+1).
func (s *Strings) Levels() int { return len(s.Roots) }

// InFragmentAt reports whether the node belongs to a level-j fragment.
func (s *Strings) InFragmentAt(j int) bool {
	return j >= 0 && j < len(s.Roots) && s.Roots[j] != RootsNone
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
		out[v] = Strings{
			Roots:   make([]byte, ell+1),
			EndP:    make([]byte, ell+1),
			Parents: make([]bool, ell+1),
			OrEndP:  make([]bool, ell+1),
		}
		for j := 0; j <= ell; j++ {
			fi := h.FragAt(v, j)
			if fi < 0 {
				out[v].Roots[j] = RootsNone
				out[v].EndP[j] = EndPStar
				continue
			}
			f := &h.Frags[fi]
			if f.Root == v {
				out[v].Roots[j] = RootsYes
			} else {
				out[v].Roots[j] = RootsNo
			}
			switch {
			case f.Cand < 0 || f.CandInside != v:
				out[v].EndP[j] = EndPNone
			case t.G.Other(f.Cand, v) == t.Parent[v]:
				out[v].EndP[j] = EndPUp
			default:
				out[v].EndP[j] = EndPDown
			}
			or := out[v].EndP[j] != EndPNone
			for _, c := range t.Children(v) {
				if h.FragAt(c, j) == fi && out[c].OrEndP[j] {
					or = true
				}
			}
			out[v].OrEndP[j] = or
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
			out[outNode].Parents[f.Level] = true
		}
	}
	return out
}
