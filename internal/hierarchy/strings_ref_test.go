package hierarchy_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssmst/internal/bits"
	"ssmst/internal/graph"
	"ssmst/internal/hierarchy"
	"ssmst/internal/syncmst"
)

// The reference: the per-node strings as four byte and bool slices, with
// the marker, the local checks and the Table 2 rendering written over them
// as they were before the strings were packed into one fixed-width value.
// The packed strings must read, measure, render and check exactly like it.

type refStrings struct {
	Roots   []byte
	EndP    []byte
	Parents []bool
	OrEndP  []bool
}

func (s *refStrings) BitSize() int {
	return bits.ForString(len(s.Roots), 3) +
		bits.ForString(len(s.EndP), 4) +
		len(s.Parents) + len(s.OrEndP)
}

func (s *refStrings) Levels() int { return len(s.Roots) }

func refMarkStrings(h *hierarchy.Hierarchy) []refStrings {
	t := h.Tree
	n := t.G.N()
	ell := h.Ell()
	out := make([]refStrings, n)
	order := t.DFSOrder()
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		out[v] = refStrings{
			Roots:   make([]byte, ell+1),
			EndP:    make([]byte, ell+1),
			Parents: make([]bool, ell+1),
			OrEndP:  make([]bool, ell+1),
		}
		for j := 0; j <= ell; j++ {
			fi := h.FragAt(v, j)
			if fi < 0 {
				out[v].Roots[j] = hierarchy.RootsNone
				out[v].EndP[j] = hierarchy.EndPStar
				continue
			}
			f := &h.Frags[fi]
			if f.Root == v {
				out[v].Roots[j] = hierarchy.RootsYes
			} else {
				out[v].Roots[j] = hierarchy.RootsNo
			}
			switch {
			case f.Cand < 0 || f.CandInside != v:
				out[v].EndP[j] = hierarchy.EndPNone
			case t.G.Other(f.Cand, v) == t.Parent[v]:
				out[v].EndP[j] = hierarchy.EndPUp
			default:
				out[v].EndP[j] = hierarchy.EndPDown
			}
			or := out[v].EndP[j] != hierarchy.EndPNone
			for _, c := range t.Children(v) {
				if h.FragAt(c, j) == fi && out[c].OrEndP[j] {
					or = true
				}
			}
			out[v].OrEndP[j] = or
		}
	}
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
			out[outNode].Parents[f.Level] = true
		}
	}
	return out
}

func refFormat(s *refStrings) (roots, endP, parents, orEndP string) {
	rb := make([]byte, len(s.Roots))
	copy(rb, s.Roots)
	eb := make([]byte, len(s.EndP))
	for i, c := range s.EndP {
		switch c {
		case hierarchy.EndPUp:
			eb[i] = 'u'
		case hierarchy.EndPDown:
			eb[i] = 'd'
		case hierarchy.EndPNone:
			eb[i] = 'n'
		default:
			eb[i] = '*'
		}
	}
	pb := make([]byte, len(s.Parents))
	ob := make([]byte, len(s.OrEndP))
	for i := range s.Parents {
		pb[i] = '0'
		if s.Parents[i] {
			pb[i] = '1'
		}
	}
	for i := range s.OrEndP {
		ob[i] = '0'
		if s.OrEndP[i] {
			ob[i] = '1'
		}
	}
	return string(rb), string(eb), string(pb), string(ob)
}

type refLocalView struct {
	Ell        int
	IsTreeRoot bool
	Own        *refStrings
	Parent     *refStrings
	Children   []*refStrings
}

// refCheckLocal is CheckLocal over the byte-slice strings, as it was
// written before the strings were packed.
func refCheckLocal(lv *refLocalView) []hierarchy.Violation {
	var out []hierarchy.Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, hierarchy.Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	s := lv.Own
	L := lv.Ell

	// RS1: string lengths are ℓ+1 (all four strings).
	if len(s.Roots) != L+1 || len(s.EndP) != L+1 || len(s.Parents) != L+1 || len(s.OrEndP) != L+1 {
		add("RS1", -1, "string lengths (%d,%d,%d,%d) ≠ ℓ+1=%d",
			len(s.Roots), len(s.EndP), len(s.Parents), len(s.OrEndP), L+1)
		return out // further indexing is unsafe
	}
	if lv.Parent != nil && lv.Parent.Levels() != L+1 {
		add("RS1", -1, "parent string length %d ≠ ℓ+1=%d", lv.Parent.Levels(), L+1)
		return out
	}
	for i, c := range lv.Children {
		if c.Levels() != L+1 {
			add("RS1", -1, "child %d string length %d ≠ ℓ+1=%d", i, c.Levels(), L+1)
			return out
		}
	}

	// Symbol sanity and EndP/Roots alignment ('*' in one iff '*' in other).
	for j := 0; j <= L; j++ {
		switch s.Roots[j] {
		case hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone:
		default:
			add("RS", j, "invalid Roots symbol %q", s.Roots[j])
		}
		switch s.EndP[j] {
		case hierarchy.EndPUp, hierarchy.EndPDown, hierarchy.EndPNone, hierarchy.EndPStar:
		default:
			add("EPS", j, "invalid EndP symbol %q", s.EndP[j])
		}
		if (s.Roots[j] == hierarchy.RootsNone) != (s.EndP[j] == hierarchy.EndPStar) {
			add("ALIGN", j, "Roots %q vs EndP %q", s.Roots[j], s.EndP[j])
		}
	}

	// RS0: no '1' after a '0' (prefix in [1,*]*, suffix in [0,*]*).
	seenZero := false
	for j := 0; j <= L; j++ {
		if s.Roots[j] == hierarchy.RootsNo {
			seenZero = true
		}
		if s.Roots[j] == hierarchy.RootsYes && seenZero {
			add("RS0", j, "'1' after a '0'")
		}
	}

	// RS2: the root of T has only '1'/'*' and '1' at position ℓ.
	if lv.IsTreeRoot {
		for j := 0; j <= L; j++ {
			if s.Roots[j] == hierarchy.RootsNo {
				add("RS2", j, "tree root marked non-root member")
			}
		}
		if s.Roots[L] != hierarchy.RootsYes {
			add("RS2", L, "tree root's ℓ entry is %q", s.Roots[L])
		}
	}

	// RS3: position 0 is '1' at every node.
	if s.Roots[0] != hierarchy.RootsYes {
		add("RS3", 0, "position 0 is %q", s.Roots[0])
	}

	// RS4: non-root nodes have '0' at position ℓ.
	if !lv.IsTreeRoot && s.Roots[L] != hierarchy.RootsNo {
		add("RS4", L, "non-root ℓ entry is %q", s.Roots[L])
	}

	// RS5: Roots[j]=='0' requires the parent's entry ≠ '*'.
	for j := 0; j <= L; j++ {
		if s.Roots[j] == hierarchy.RootsNo {
			if lv.Parent == nil {
				add("RS5", j, "member '0' at tree root")
			} else if lv.Parent.Roots[j] == hierarchy.RootsNone {
				add("RS5", j, "parent has '*' at member level")
			}
		}
	}

	out = append(out, refCheckEPS(lv)...)
	out = append(out, refCheckOrEndP(lv)...)
	return out
}

func refCheckEPS(lv *refLocalView) []hierarchy.Violation {
	var out []hierarchy.Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, hierarchy.Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	s := lv.Own
	L := lv.Ell

	for j := 0; j <= L; j++ {
		// EPS0: Parents[j] set implies the parent's EndP[j] is 'down'.
		if s.Parents[j] && (lv.Parent == nil || lv.Parent.EndP[j] != hierarchy.EndPDown) {
			add("EPS0", j, "Parents mark without 'down' at parent")
		}
		// EPS2: EndP 'down' implies exactly one child has Parents[j].
		if s.EndP[j] == hierarchy.EndPDown {
			count := 0
			for _, c := range lv.Children {
				if c.Parents[j] {
					count++
				}
			}
			if count != 1 {
				add("EPS2", j, "'down' with %d marked children", count)
			}
		}
		// EPS3: EndP 'up' implies Roots[j]=='1' and no '1' above j.
		if s.EndP[j] == hierarchy.EndPUp {
			if lv.Parent == nil {
				add("EPS3", j, "'up' at root of T")
			}
			if s.Roots[j] != hierarchy.RootsYes {
				add("EPS3", j, "'up' but Roots[j]=%q", s.Roots[j])
			}
			for i := j + 1; i <= L; i++ {
				if s.Roots[i] == hierarchy.RootsYes {
					add("EPS3", j, "'up' but Roots[%d]=='1'", i)
				}
			}
		}
		// EPS4: Parents[j] implies Roots[j] ≠ '0' and no '1' above j.
		if s.Parents[j] {
			if s.Roots[j] == hierarchy.RootsNo {
				add("EPS4", j, "Parents mark but Roots[j]=='0'")
			}
			for i := j + 1; i <= L; i++ {
				if s.Roots[i] == hierarchy.RootsYes {
					add("EPS4", j, "Parents mark but Roots[%d]=='1'", i)
				}
			}
		}
	}

	// EPS5: every non-root has some 'up' or Parents mark.
	if !lv.IsTreeRoot {
		found := false
		for j := 0; j <= L; j++ {
			if s.Parents[j] || s.EndP[j] == hierarchy.EndPUp {
				found = true
				break
			}
		}
		if !found {
			add("EPS5", -1, "no hook level at non-root")
		}
	}
	return out
}

func refCheckOrEndP(lv *refLocalView) []hierarchy.Violation {
	var out []hierarchy.Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, hierarchy.Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	s := lv.Own
	L := lv.Ell
	for j := 0; j <= L; j++ {
		if s.Roots[j] == hierarchy.RootsNone {
			if s.OrEndP[j] {
				add("EPS1", j, "OrEndP set outside any fragment")
			}
			continue
		}
		own := s.EndP[j] == hierarchy.EndPUp || s.EndP[j] == hierarchy.EndPDown
		contributors := 0
		if own {
			contributors++
		}
		or := own
		for _, c := range lv.Children {
			if c.Roots[j] == hierarchy.RootsNo && c.OrEndP[j] {
				contributors++
				or = true
			}
		}
		if s.OrEndP[j] != or {
			add("EPS1", j, "OrEndP=%v but aggregation yields %v", s.OrEndP[j], or)
		}
		if contributors > 1 {
			add("EPS1", j, "%d endpoint contributors", contributors)
		}
		if s.Roots[j] == hierarchy.RootsYes {
			// Fragment root: exactly one endpoint, except for T itself
			// (the level-ℓ fragment rooted at the root of T).
			isWholeTree := lv.IsTreeRoot && j == L
			if isWholeTree && s.OrEndP[j] {
				add("EPS1", j, "whole tree has a candidate endpoint")
			}
			if !isWholeTree && !s.OrEndP[j] {
				add("EPS1", j, "fragment with no candidate endpoint")
			}
		}
	}
	return out
}

// refInstance is one hierarchy's strings in both forms.
type refInstance struct {
	name string
	tree *graph.Tree
	ell  int
	ss   []hierarchy.Strings
	ref  []refStrings
}

// refInstances marks the Figure 1 example and every family at n ∈ {64,
// 256}, seeds 1–2, with MarkStrings and with the reference marker.
func refInstances(t *testing.T) []refInstance {
	t.Helper()
	var out []refInstance
	add := func(name string, h *hierarchy.Hierarchy) {
		out = append(out, refInstance{name, h.Tree, h.Ell(), hierarchy.MarkStrings(h), refMarkStrings(h)})
	}
	h, err := hierarchy.ExampleHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	add("figure1", h)
	for _, fam := range graph.Families() {
		for _, n := range []int{64, 256} {
			for seed := int64(1); seed <= 2; seed++ {
				g, err := graph.ByFamily(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := syncmst.Simulate(g)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("%s n=%d seed=%d", fam, n, seed), res.Hierarchy)
			}
		}
	}
	return out
}

// sameChecks fails unless CheckLocal at node v returns exactly the
// reference's violations: rule, level and message, in order.
func (in *refInstance) sameChecks(t *testing.T, tag string, v int) {
	t.Helper()
	lv := &hierarchy.LocalView{Ell: in.ell, IsTreeRoot: v == in.tree.Root, Own: &in.ss[v]}
	rv := &refLocalView{Ell: in.ell, IsTreeRoot: v == in.tree.Root, Own: &in.ref[v]}
	if p := in.tree.Parent[v]; p >= 0 {
		lv.Parent, rv.Parent = &in.ss[p], &in.ref[p]
	}
	for _, c := range in.tree.Children(v) {
		lv.Children = append(lv.Children, &in.ss[c])
		rv.Children = append(rv.Children, &in.ref[c])
	}
	if got, want := hierarchy.CheckLocal(lv), refCheckLocal(rv); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: CheckLocal at node %d\n got %v\nwant %v", in.name, tag, v, got, want)
	}
}

// sameStrings fails unless node v's packed strings render, measure and
// answer membership exactly like the reference's.
func (in *refInstance) sameStrings(t *testing.T, tag string, v int) {
	t.Helper()
	s, r := &in.ss[v], &in.ref[v]
	var got, want [4]string
	got[0], got[1], got[2], got[3] = hierarchy.FormatStrings(s)
	want[0], want[1], want[2], want[3] = refFormat(r)
	if got != want {
		t.Fatalf("%s %s: node %d strings %q, want %q", in.name, tag, v, got, want)
	}
	if s.Levels() != r.Levels() || s.BitSize() != r.BitSize() {
		t.Fatalf("%s %s: node %d levels/bits %d/%d, want %d/%d", in.name, tag, v, s.Levels(), s.BitSize(), r.Levels(), r.BitSize())
	}
	var members uint64
	for j := -1; j <= r.Levels(); j++ {
		want := j >= 0 && j < r.Levels() && r.Roots[j] != hierarchy.RootsNone
		if s.InFragmentAt(j) != want {
			t.Fatalf("%s %s: node %d InFragmentAt(%d) = %v", in.name, tag, v, j, !want)
		}
		if want {
			members |= 1 << uint(j)
		}
	}
	if s.Members() != members {
		t.Fatalf("%s %s: node %d Members %#x, want %#x", in.name, tag, v, s.Members(), members)
	}
}

// TestPackedStringsMatchReference: node by node, MarkStrings and the
// reference marker produce the same strings — rendering, level count,
// BitSize and membership — and CheckLocal finds the same (no) violations.
func TestPackedStringsMatchReference(t *testing.T) {
	for _, in := range refInstances(t) {
		for v := range in.ss {
			in.sameStrings(t, "marked", v)
			in.sameChecks(t, "marked", v)
		}
	}
}

// TestPackedChecksMatchReferenceUnderMutation applies every single-entry
// mutation of a node's own strings to both forms — each level set to every
// other Roots and EndP symbol, and each Parents and Or_EndP entry flipped —
// and compares CheckLocal at the node and at every tree neighbour whose
// view reads its strings.
func TestPackedChecksMatchReferenceUnderMutation(t *testing.T) {
	rootsSymbols := []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone}
	endPSymbols := []byte{hierarchy.EndPUp, hierarchy.EndPDown, hierarchy.EndPNone, hierarchy.EndPStar}
	mutations := 0
	for _, in := range refInstances(t) {
		for v := range in.ss {
			readers := append([]int{v}, in.tree.Children(v)...)
			if p := in.tree.Parent[v]; p >= 0 {
				readers = append(readers, p)
			}
			compare := func(tag string) {
				in.sameStrings(t, tag, v)
				for _, u := range readers {
					in.sameChecks(t, tag, u)
				}
				mutations++
			}
			s, r := &in.ss[v], &in.ref[v]
			for j := 0; j < r.Levels(); j++ {
				for _, sym := range rootsSymbols {
					if old := r.Roots[j]; sym != old {
						s.SetRootsAt(j, sym)
						r.Roots[j] = sym
						compare(fmt.Sprintf("Roots[%d]=%c", j, sym))
						s.SetRootsAt(j, old)
						r.Roots[j] = old
					}
				}
				for _, sym := range endPSymbols {
					if old := r.EndP[j]; sym != old {
						s.SetEndPAt(j, sym)
						r.EndP[j] = sym
						compare(fmt.Sprintf("EndP[%d]=%c", j, sym))
						s.SetEndPAt(j, old)
						r.EndP[j] = old
					}
				}
				s.SetParentsAt(j, !s.ParentsAt(j))
				r.Parents[j] = !r.Parents[j]
				compare(fmt.Sprintf("Parents[%d] flipped", j))
				s.SetParentsAt(j, !s.ParentsAt(j))
				r.Parents[j] = !r.Parents[j]
				s.SetOrEndPAt(j, !s.OrEndPAt(j))
				r.OrEndP[j] = !r.OrEndP[j]
				compare(fmt.Sprintf("OrEndP[%d] flipped", j))
				s.SetOrEndPAt(j, !s.OrEndPAt(j))
				r.OrEndP[j] = !r.OrEndP[j]
			}
			in.sameStrings(t, "restored", v)
		}
	}
	t.Logf("%d single-entry mutations checked", mutations)
}

// TestPackedChecksMatchReferenceUnderRandomCorruption corrupts several
// entries at once, spread over a node and its tree neighbours, so that the
// rules reading two nodes' strings see both sides changed, and compares
// CheckLocal at every node whose view reads a changed string.
func TestPackedChecksMatchReferenceUnderRandomCorruption(t *testing.T) {
	rootsSymbols := []byte{hierarchy.RootsYes, hierarchy.RootsNo, hierarchy.RootsNone}
	endPSymbols := []byte{hierarchy.EndPUp, hierarchy.EndPDown, hierarchy.EndPNone, hierarchy.EndPStar}
	rng := rand.New(rand.NewSource(11))
	for _, in := range refInstances(t) {
		n := len(in.ss)
		for trial := 0; trial < 4*n; trial++ {
			v := rng.Intn(n)
			near := append([]int{v}, in.tree.Children(v)...)
			if p := in.tree.Parent[v]; p >= 0 {
				near = append(near, p)
			}
			savedS := make([]hierarchy.Strings, len(near))
			savedR := make([]refStrings, len(near))
			for i, u := range near {
				savedS[i] = in.ss[u]
				r := in.ref[u]
				savedR[i] = refStrings{
					Roots: append([]byte(nil), r.Roots...), EndP: append([]byte(nil), r.EndP...),
					Parents: append([]bool(nil), r.Parents...), OrEndP: append([]bool(nil), r.OrEndP...),
				}
			}
			for k := 1 + rng.Intn(6); k > 0; k-- {
				u := near[rng.Intn(len(near))]
				s, r := &in.ss[u], &in.ref[u]
				j := rng.Intn(r.Levels())
				switch rng.Intn(4) {
				case 0:
					r.Roots[j] = rootsSymbols[rng.Intn(3)]
					s.SetRootsAt(j, r.Roots[j])
				case 1:
					r.EndP[j] = endPSymbols[rng.Intn(4)]
					s.SetEndPAt(j, r.EndP[j])
				case 2:
					r.Parents[j] = !r.Parents[j]
					s.SetParentsAt(j, r.Parents[j])
				case 3:
					r.OrEndP[j] = !r.OrEndP[j]
					s.SetOrEndPAt(j, r.OrEndP[j])
				}
			}
			readers := map[int]bool{}
			for _, u := range near {
				readers[u] = true
				for _, c := range in.tree.Children(u) {
					readers[c] = true
				}
				if p := in.tree.Parent[u]; p >= 0 {
					readers[p] = true
				}
			}
			tag := fmt.Sprintf("trial %d", trial)
			for u := range readers {
				in.sameChecks(t, tag, u)
			}
			for i, u := range near {
				in.ss[u], in.ref[u] = savedS[i], savedR[i]
			}
		}
	}
}
