package hierarchy

import (
	"fmt"
	mbits "math/bits"

	"ssmst/internal/graph"
)

// This file implements the paper's local legality conditions as pure
// functions over a node's own strings and those of its tree neighbours:
// the Roots-string conditions RS0–RS5 (§5.2), the candidate-function
// conditions EPS0–EPS5 (§5.3), and the Or_EndP aggregation check that
// implements the "precisely one endpoint per fragment" condition EPS1 in
// the NumK style. The distributed verifier evaluates these at every node in
// every round; they are also used directly in tests.

// Violation is one failed local condition.
type Violation struct {
	Rule  string
	Level int
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s@%d: %s", v.Rule, v.Level, v.Msg)
}

// LocalView is everything the RS/EPS checks may read at one node: the
// paper's model lets a node read its own label and its tree neighbours'
// labels in one time unit.
type LocalView struct {
	Ell        int      // ℓ: strings must have ℓ+1 entries
	IsTreeRoot bool     // is this node the root of T (established by scheme SP)
	Own        *Strings // the node's own strings
	Parent     *Strings // parent's strings, nil iff IsTreeRoot
	Children   []*Strings
}

// CheckLocal evaluates every local condition at one node and returns all
// violations (empty for legal strings at this node). The strings are bit
// planes, so each condition is evaluated over every level at once, as the
// set of levels violating it (levelSets); a violation is then reported per
// level in that set, in level order, exactly as a scan of the levels would.
func CheckLocal(lv *LocalView) []Violation {
	var out []Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	s := lv.Own
	L := lv.Ell

	// RS1: string lengths are ℓ+1 (all four strings share one length).
	if k := s.Levels(); k != L+1 {
		add("RS1", -1, "string lengths (%d,%d,%d,%d) ≠ ℓ+1=%d", k, k, k, k, L+1)
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
	o := s.sets()

	// EndP/Roots alignment ('*' in one iff '*' in other). Every stored
	// entry is a valid symbol: the packed strings hold no other.
	for m := o.star ^ o.estar; m != 0; m &= m - 1 {
		j := lowest(m)
		add("ALIGN", j, "Roots %q vs EndP %q", s.RootsAt(j), s.EndPAt(j))
	}

	// RS0: no '1' after a '0' (prefix in [1,*]*, suffix in [0,*]*): the
	// '1' entries above the lowest '0' (none when there is no '0').
	for m := o.yes &^ (o.no ^ (o.no - 1)); m != 0; m &= m - 1 {
		add("RS0", lowest(m), "'1' after a '0'")
	}

	// RS2: the root of T has only '1'/'*' and '1' at position ℓ.
	if lv.IsTreeRoot {
		for m := o.no; m != 0; m &= m - 1 {
			add("RS2", lowest(m), "tree root marked non-root member")
		}
		if !has(o.yes, L) {
			add("RS2", L, "tree root's ℓ entry is %q", s.RootsAt(L))
		}
	}

	// RS3: position 0 is '1' at every node.
	if !has(o.yes, 0) {
		add("RS3", 0, "position 0 is %q", s.RootsAt(0))
	}

	// RS4: non-root nodes have '0' at position ℓ.
	if !lv.IsTreeRoot && !has(o.no, L) {
		add("RS4", L, "non-root ℓ entry is %q", s.RootsAt(L))
	}

	// RS5: Roots[j]=='0' requires the parent's entry ≠ '*'.
	if lv.Parent == nil {
		for m := o.no; m != 0; m &= m - 1 {
			add("RS5", lowest(m), "member '0' at tree root")
		}
	} else {
		for m := o.no & lv.Parent.sets().star; m != 0; m &= m - 1 {
			add("RS5", lowest(m), "parent has '*' at member level")
		}
	}

	out = append(out, checkEPS(lv, &o)...)
	out = append(out, checkOrEndP(lv, &o)...)
	return out
}

// checkEPS evaluates EPS0 and EPS2–EPS5, level by level in the order the
// rules are listed, for the levels at which some rule fails.
func checkEPS(lv *LocalView, o *levelSets) []Violation {
	var out []Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	s := lv.Own

	// EPS0: Parents[j] set implies the parent's EndP[j] is 'down'.
	var parentDown uint64
	if lv.Parent != nil {
		parentDown = lv.Parent.sets().down
	}
	eps0 := o.parents &^ parentDown
	// EPS2: EndP 'down' implies exactly one child has Parents[j].
	var marked, markedTwice uint64
	for _, c := range lv.Children {
		p := uint64(c.parents)
		markedTwice |= marked & p
		marked |= p
	}
	eps2 := o.down &^ (marked &^ markedTwice)
	// EPS3: EndP 'up' implies Roots[j]=='1' and no '1' above j.
	// EPS4: Parents[j] implies Roots[j] ≠ '0' and no '1' above j.
	var belowTopYes uint64 // the levels with a '1' above them
	if o.yes != 0 {
		belowTopYes = uint64(1)<<(63-uint(mbits.LeadingZeros64(o.yes))) - 1
	}
	eps3 := o.up
	if lv.Parent != nil {
		eps3 &= ^o.yes | belowTopYes
	}
	eps4 := o.parents & (o.no | belowTopYes)

	for m := eps0 | eps2 | eps3 | eps4; m != 0; m &= m - 1 {
		j := lowest(m)
		if has(eps0, j) {
			add("EPS0", j, "Parents mark without 'down' at parent")
		}
		if has(eps2, j) {
			count := 0
			for _, c := range lv.Children {
				if c.parents.at(j) {
					count++
				}
			}
			add("EPS2", j, "'down' with %d marked children", count)
		}
		above := o.yes &^ (uint64(2)<<uint(j) - 1) // the '1' entries above j
		if has(o.up, j) {
			if lv.Parent == nil {
				add("EPS3", j, "'up' at root of T")
			}
			if !has(o.yes, j) {
				add("EPS3", j, "'up' but Roots[j]=%q", s.RootsAt(j))
			}
			for a := above; a != 0; a &= a - 1 {
				add("EPS3", j, "'up' but Roots[%d]=='1'", lowest(a))
			}
		}
		if has(o.parents, j) {
			if has(o.no, j) {
				add("EPS4", j, "Parents mark but Roots[j]=='0'")
			}
			for a := above; a != 0; a &= a - 1 {
				add("EPS4", j, "Parents mark but Roots[%d]=='1'", lowest(a))
			}
		}
	}

	// EPS5: every non-root has some 'up' or Parents mark.
	if !lv.IsTreeRoot && o.parents|o.up == 0 {
		add("EPS5", -1, "no hook level at non-root")
	}
	return out
}

// checkOrEndP verifies the NumK-style aggregation that gives EPS1
// ("precisely one candidate endpoint per fragment"):
//
//	OrEndP[j](v) = isEndpoint(v,j) ∨ OR over children c in Fj(v),
//	with at most one contributor, and exactly one at each fragment root
//	(zero for the whole tree T).
func checkOrEndP(lv *LocalView, o *levelSets) []Violation {
	var out []Violation
	add := func(rule string, level int, format string, args ...interface{}) {
		out = append(out, Violation{Rule: rule, Level: level, Msg: fmt.Sprintf(format, args...)})
	}
	L := lv.Ell
	// The levels with at least one and with two or more contributing
	// children: members of v's fragment ('0') whose Or_EndP is set.
	var fromChild, fromTwo uint64
	for _, c := range lv.Children {
		k := c.sets()
		x := k.no & k.orEndP
		fromTwo |= fromChild & x
		fromChild |= x
	}
	member := o.yes | o.no
	var wholeTree uint64 // the level-ℓ fragment rooted at the root of T
	if lv.IsTreeRoot {
		wholeTree = 1 << uint(L)
	}
	bad := o.star&o.orEndP |
		member&(o.orEndP^(o.endpoint|fromChild)|o.endpoint&fromChild|fromTwo) |
		o.yes&(wholeTree&o.orEndP|^wholeTree&^o.orEndP)

	for m := bad; m != 0; m &= m - 1 {
		j := lowest(m)
		orEndP := has(o.orEndP, j)
		if has(o.star, j) {
			add("EPS1", j, "OrEndP set outside any fragment")
			continue
		}
		own := has(o.endpoint, j)
		contributors := 0
		if own {
			contributors++
		}
		or := own
		for _, c := range lv.Children {
			if c.RootsAt(j) == RootsNo && c.OrEndPAt(j) {
				contributors++
				or = true
			}
		}
		if orEndP != or {
			add("EPS1", j, "OrEndP=%v but aggregation yields %v", orEndP, or)
		}
		if contributors > 1 {
			add("EPS1", j, "%d endpoint contributors", contributors)
		}
		if has(o.yes, j) {
			// Fragment root: exactly one endpoint, except for T itself
			// (the level-ℓ fragment rooted at the root of T).
			isWholeTree := lv.IsTreeRoot && j == L
			if isWholeTree && orEndP {
				add("EPS1", j, "whole tree has a candidate endpoint")
			}
			if !isWholeTree && !orEndP {
				add("EPS1", j, "fragment with no candidate endpoint")
			}
		}
	}
	return out
}

// lowest returns the lowest level in a non-empty level set.
func lowest(m uint64) int { return mbits.TrailingZeros64(m) }

// has reports whether level j is in the set m.
func has(m uint64, j int) bool { return m>>(uint(j)&63)&1 != 0 }

// CheckAll runs CheckLocal at every node of a labeled tree and returns all
// violations keyed by node. A legal marking yields an empty map.
func CheckAll(t *graph.Tree, ell int, ss []Strings) map[int][]Violation {
	res := make(map[int][]Violation)
	for v := 0; v < t.G.N(); v++ {
		lv := &LocalView{Ell: ell, IsTreeRoot: v == t.Root, Own: &ss[v]}
		if p := t.Parent[v]; p >= 0 {
			lv.Parent = &ss[p]
		}
		for _, c := range t.Children(v) {
			lv.Children = append(lv.Children, &ss[c])
		}
		if vs := CheckLocal(lv); len(vs) > 0 {
			res[v] = vs
		}
	}
	return res
}
